"""Table generation: probability grids and optimized-length rows as CSV/text.

Both kinds go through one writer.  CSV files open with a ``#`` metadata
line recording the energy-to-length mapping, then a mandatory header row.
Display columns round half-even to 3 decimals; each carries a full-precision
companion column so any cell can be re-evaluated and checked exactly.
Text tables drop the companions.
"""

from __future__ import annotations

import numpy as np

from .analytic import _p_steiner_column
from .configs import checked_count
from .gaussian import DEFAULT_QUADRATURE, QuadratureSpec
from .optimize import OptimResult

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


def pair_length(energy: float, k: int) -> float:
    """Length per pair when energy E is split over k equal pairs: sqrt(E/(2k))."""
    k = checked_count("k", k, 1)
    if not energy >= 0:
        raise ValueError(f"energy must be a nonnegative number, got {energy}")
    return float(np.sqrt(energy / (2.0 * k)))


def simplex_radius(energy: float, m: int) -> float:
    """Radius of the regular m-simplex that spends energy E on m vertices: sqrt(E/m)."""
    m = checked_count("m", m, 2)
    if not energy >= 0:
        raise ValueError(f"energy must be a nonnegative number, got {energy}")
    return float(np.sqrt(energy / m))


def steiner_grid(k_values, energies, spec: QuadratureSpec | None = None) -> np.ndarray:
    """P(k, E) over the grid; rows follow energies, columns k.  Every pair
    length is checked before any integral runs; then each k column is one
    quadrature loop with the values of per-cell :func:`p_steiner` calls."""
    lengths = [[pair_length(e, k) for k in k_values] for e in energies]
    grid = np.reshape(lengths, (len(energies), len(k_values)))
    for j, k in enumerate(k_values):
        grid[:, j] = _p_steiner_column(int(k), grid[:, j], spec or DEFAULT_QUADRATURE)
    return grid


def _render(output_format, note, title, labels, energies, rows, widths) -> str:
    """One line per energy: CSV under a ``#`` note, 3-decimal columns then
    their full-precision ``_full`` companions, or text under a title, the
    3-decimal columns right-aligned in ``widths``."""
    if output_format == FORMAT_CSV:
        lines = [f"# {note}", ",".join(["E", *labels, *(f"{c}_full" for c in labels)])]
        lines += [
            ",".join([f"{e:.3f}", *(f"{v:.3f}" for v in row), *(repr(float(v)) for v in row)])
            for e, row in zip(energies, rows)
        ]
    else:
        lines = [title, f"{'E':>10} " + " ".join(f"{c:>{w}}" for c, w in zip(labels, widths))]
        lines += [
            f"{e:>10.3f} " + " ".join(f"{v:>{w}.3f}" for v, w in zip(row, widths))
            for e, row in zip(energies, rows)
        ]
    return "\n".join(lines) + "\n"


def render_steiner(k_values, energies, grid: np.ndarray, output_format: str) -> str:
    return _render(
        output_format,
        "P(k, E) for k equal orthogonal antipodal pairs plus an origin point; "
        "pair length a = sqrt(E/(2k))",
        "P(k, E), pair length a = sqrt(E/(2k)), origin point included",
        [f"k={k}" for k in k_values], energies, grid, [8] * len(k_values),
    )


def render_optimize(k: int, energies, rows: list[OptimResult], output_format: str) -> str:
    return _render(
        output_format,
        f"optimized lengths of {k} orthogonal antipodal pairs at fixed energy, "
        "sorted descending; share of pair i is 2*a_i^2/E",
        f"optimized antipodal pair lengths, k = {k}",
        [f"a{i + 1}" for i in range(k)] + ["P"], energies,
        [[*res.lengths, res.p_value] for res in rows], [8] * k + [10],
    )


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
