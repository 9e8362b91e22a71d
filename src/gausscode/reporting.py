"""Table generation: probability grids and optimized-length rows as CSV/text.

CSV files open with a ``#`` metadata line recording the energy-to-length
mapping, then a mandatory header row.  Display columns round half-even to
3 decimals; each carries a full-precision companion column so any cell
can be re-evaluated and checked exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .analytic import p_steiner
from .configs import EnergyBudget
from .gaussian import QuadratureSpec
from .optimize import OptimResult, OptimSettings, basin_hop

# Default evaluation grid for the k-equal-pairs-plus-origin table: energies
# 0.1..1 by 0.1, 1.5..5 by 0.5, 10..100 by 5, 120..200 by 20, 300..1000 by 100.
STEINER_ENERGY_GRID: tuple[float, ...] = tuple(
    round(e, 3)
    for e in (
        [0.1 * i for i in range(1, 10)]
        + [0.5 * i for i in range(2, 11)]
        + [5.0 * i for i in range(2, 21)]
        + [120.0, 140.0, 160.0, 180.0, 200.0]
        + [100.0 * i for i in range(3, 11)]
    )
)
STEINER_K_GRID: tuple[int, ...] = tuple(range(1, 21))

# Energies of the published optimized-length rows, per pair count k; the
# all-equal threshold scan runs over these.
THRESHOLD_ENERGY_GRIDS: dict[int, tuple[float, ...]] = {
    3: (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 20.0),
    4: (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 20.0),
    5: (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0),
    6: (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 19.0, 20.0, 21.0),
}

KIND_STEINER = "steiner"
KIND_OPTIMIZE = "optimize"
FORMAT_CSV = "csv"
FORMAT_TEXT = "structured-text"


@dataclass(frozen=True)
class TableRequest:
    """What to tabulate: a P(k, E) grid or optimized rows at one k."""

    kind: str
    k_values: tuple[int, ...]
    energy_values: tuple[float, ...]
    tolerance: float = 1e-10
    output_format: str = FORMAT_CSV

    def __post_init__(self) -> None:
        if self.kind not in (KIND_STEINER, KIND_OPTIMIZE):
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.output_format not in (FORMAT_CSV, FORMAT_TEXT):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not self.k_values or not self.energy_values:
            raise ValueError("k_values and energy_values must be nonempty")
        if self.kind == KIND_OPTIMIZE and len(self.k_values) != 1:
            raise ValueError("optimize tables take exactly one k")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k values must be >= 1")
        # E = 0 is meaningful for the probability grid (all points coincide,
        # P = 1) but not for the optimizer's energy budget.
        if self.kind == KIND_OPTIMIZE:
            if any(e <= 0 for e in self.energy_values):
                raise ValueError("optimize energies must be positive")
        elif any(e < 0 for e in self.energy_values):
            raise ValueError("grid energies must be nonnegative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def pair_length(energy: float, k: int) -> float:
    """Length per pair when energy E is split over k equal pairs: sqrt(E/(2k))."""
    return float(np.sqrt(energy / (2.0 * k)))


def steiner_grid(request: TableRequest) -> np.ndarray:
    """P(k, E) over the requested grid; rows follow energies, columns k."""
    spec = QuadratureSpec(abs_tol=request.tolerance)
    grid = np.empty((len(request.energy_values), len(request.k_values)))
    for i, e in enumerate(request.energy_values):
        for j, k in enumerate(request.k_values):
            grid[i, j] = p_steiner(k, pair_length(e, k), spec).value
    return grid


def optimize_rows(
    request: TableRequest, settings: OptimSettings | None = None
) -> list[OptimResult]:
    """One basin-hopping result per requested energy, at the single requested k."""
    spec = QuadratureSpec(abs_tol=request.tolerance)
    k = request.k_values[0]
    return [basin_hop(k, EnergyBudget(e), settings, spec) for e in request.energy_values]


def _fmt3(x: float) -> str:
    return f"{x:.3f}"


def render_steiner(request: TableRequest, grid: np.ndarray) -> str:
    ks = request.k_values
    out = io.StringIO()
    if request.output_format == FORMAT_CSV:
        out.write("# P(k, E) for k equal orthogonal antipodal pairs plus an origin "
                  "point; pair length a = sqrt(E/(2k))\n")
        header = ["E"] + [f"k={k}" for k in ks] + [f"k={k}_full" for k in ks]
        out.write(",".join(header) + "\n")
        for e, row in zip(request.energy_values, grid):
            cells = [_fmt3(e)] + [_fmt3(v) for v in row] + [repr(float(v)) for v in row]
            out.write(",".join(cells) + "\n")
    else:
        out.write("P(k, E), pair length a = sqrt(E/(2k)), origin point included\n")
        out.write(f"{'E':>10} " + " ".join(f"{f'k={k}':>8}" for k in ks) + "\n")
        for e, row in zip(request.energy_values, grid):
            out.write(f"{e:>10.3f} " + " ".join(f"{v:>8.3f}" for v in row) + "\n")
    return out.getvalue()


def render_optimize(request: TableRequest, rows: list[OptimResult]) -> str:
    k = request.k_values[0]
    out = io.StringIO()
    if request.output_format == FORMAT_CSV:
        out.write(f"# optimized lengths of {k} orthogonal antipodal pairs at fixed "
                  "energy, sorted descending; share of pair i is 2*a_i^2/E\n")
        header = (
            ["E"] + [f"a{i+1}" for i in range(k)] + ["P"]
            + [f"a{i+1}_full" for i in range(k)] + ["P_full"]
        )
        out.write(",".join(header) + "\n")
        for e, res in zip(request.energy_values, rows):
            cells = (
                [_fmt3(e)]
                + [_fmt3(a) for a in res.lengths]
                + [_fmt3(res.p_value)]
                + [repr(float(a)) for a in res.lengths]
                + [repr(res.p_value)]
            )
            out.write(",".join(cells) + "\n")
    else:
        out.write(f"optimized antipodal pair lengths, k = {k}\n")
        out.write(f"{'E':>10} " + " ".join(f"{f'a{i+1}':>8}" for i in range(k))
                  + f" {'P':>10}\n")
        for e, res in zip(request.energy_values, rows):
            out.write(f"{e:>10.3f} " + " ".join(f"{a:>8.3f}" for a in res.lengths)
                      + f" {res.p_value:>10.3f}\n")
    return out.getvalue()


def parse_steiner_csv(text: str):
    """Read back an emitted steiner CSV: (energies, ks, display, full) arrays."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    ks = [int(h.split("=")[1]) for h in header[1:] if not h.endswith("_full")]
    n_k = len(ks)
    energies, display, full = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        energies.append(float(parts[0]))
        display.append([float(x) for x in parts[1 : 1 + n_k]])
        full.append([float(x) for x in parts[1 + n_k :]])
    return np.array(energies), ks, np.array(display), np.array(full)
