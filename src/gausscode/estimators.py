"""Configuration-agnostic oracles for the functional P.

Four independent routes:

* :func:`mc_decode` simulates nearest-point decoding directly.  Noise g
  sent from v_i decodes to v_i exactly when g . w_j < |w_j|^2 / 2 for
  every w_j = v_j - v_i (j != i), which is |g|^2 < |g - w_j|^2 expanded,
  so each chunk of samples is tested with one matrix product.
* :func:`p_direct` integrates max_i phi_n(x - v_i) over windows around the
  points by iterated adaptive quadrature (n <= 3).
* :func:`slice_identity_check` reconstructs P through the level-set
  representation over unions of halfspaces, under the variance-1/2
  Gaussian (density proportional to exp(-|x|^2)): with
  C_y = union_i {2 x . v_i - |v_i|^2 >= ln y},

      int_0^inf mu~(C_y) dy  =  P_std(sqrt(2) v),

  where mu~ is the normalized variance-1/2 measure and P_std the standard
  functional evaluated on the sqrt(2)-scaled configuration.
* :func:`plank_product_gap` measures intersections of symmetric planks
  against the product of their marginal measures (the Sidak lower bound,
  an equality for mutually perpendicular planks).

All Monte Carlo work runs in the calling thread through one runner,
:func:`_hit_fractions`, which gives each per-point / per-level test the
substream (seed, index), so estimates are reproducible.  Tests see
cache-sized chunks of draws as (dimension, m) views, so they compare
(conditions, m) and reduce axis 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import METHOD_DIRECT, ProbEstimate
from .configs import Configuration, checked_count
from .gaussian import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    RandomStream,
    deferred_ndtr,
    integrate_many,
)

ndtr = deferred_ndtr(globals())

# Rows per chunk: a 13-point chunk's draws, products and mask fit a 4 MiB L2.
_CHUNK = 1 << 14


class DimensionTooLargeError(ValueError):
    """Direct integration is cost-guarded to n <= 3."""


class GridCoverageError(ValueError):
    """The y grid does not cover the level range the slicing identity needs."""


@dataclass(frozen=True)
class MCReport:
    """A Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimate", float(self.estimate))
        object.__setattr__(self, "std_error", float(self.std_error))
        if self.std_error < 0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class HalfspaceSystem:
    """Halfspaces {x : w . x >= c}, stored as rows of normals and offsets."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("one offset per normal required")
        if not np.all(np.isfinite(normals)):
            raise ValueError("all normals must be finite")
        if not np.all(np.linalg.norm(normals, axis=1) > 0):
            raise ValueError("all normals must be nonzero")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("all offsets must be finite")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def at_level(cls, config: Configuration, y: float) -> "HalfspaceSystem":
        """The union-of-halfspaces slice of a configuration at level y > 0.

        Halfspace i is {x : 2 v_i . x >= ln y + |v_i|^2}; points at the
        origin would give a degenerate (empty or full) halfspace and are
        rejected.
        """
        if not y > 0:
            raise ValueError(f"level y must be positive, got {y}")
        pts = config.distinct_points()
        norms2 = (pts**2).sum(axis=1)
        if np.any(norms2 == 0):
            raise ValueError("configurations with a point at the origin not supported")
        return cls(2.0 * pts, np.log(y) + norms2)


@dataclass(frozen=True)
class PlankSystem:
    """Symmetric planks {x : |u . x| <= h} given by unit directions and half-widths."""

    directions: np.ndarray
    halfwidths: np.ndarray

    def __post_init__(self) -> None:
        directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        halfwidths = np.atleast_1d(np.asarray(self.halfwidths, dtype=float))
        if directions.shape[0] != halfwidths.shape[0] or directions.shape[0] < 1:
            raise ValueError("one halfwidth per direction required")
        if not np.all(np.isfinite(directions)):
            raise ValueError("directions must be finite")
        unit = np.abs(np.linalg.norm(directions, axis=1) - 1.0)
        if np.any(unit > 1e-12):
            raise ValueError("directions must be unit norm to 1e-12")
        if not np.all(halfwidths > 0):
            raise ValueError("halfwidths must be positive")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "halfwidths", halfwidths)


def _hit_fractions(tests, samples: int, seed: int, dimension: int) -> list[float]:
    """Share of ``samples`` standard normal draws that each test accepts.

    Test i is a vectorized function of a (dimension, m) view whose columns
    are draws, returning one boolean per column; it draws from substream
    (seed, i) in chunks of at most ``_CHUNK`` draws; callers check ``samples``.
    """
    fractions = []
    for i, test in enumerate(tests):
        stream = RandomStream(seed, i)
        hits = 0
        for done in range(0, samples, _CHUNK):
            g = stream.normal((min(_CHUNK, samples - done), dimension))
            hits += int(np.count_nonzero(test(g.T)))
        fractions.append(hits / samples)
    return fractions


def mc_decode(
    config: Configuration, samples: int, seed: int, threads: int = 1
) -> MCReport:
    """Monte Carlo estimate of P by simulating nearest-point decoding.

    For each distinct point v_i the noise g must land *strictly* inside
    every wall halfspace g . w_j < |w_j|^2 / 2, w_j = v_j - v_i for the
    other distinct points v_j.  Expanding |g|^2 < |g - w_j|^2 gives that
    inequality, so this is exactly "v_i + g is strictly closer to v_i than
    to every other point".  Exact ties count as incorrect (the wall set
    has measure zero, so the convention is estimate-neutral).  Point i
    draws from substream (seed, i) in the calling thread; ``threads`` is
    checked and ignored.  The standard error is the root-sum-square of the
    per-point binomial errors.  Two points whose difference, or its squared
    norm, overflows float64 are refused with ``ValueError`` before any draw.
    """
    samples = checked_count("samples", samples, 1)
    checked_count("threads", threads, 1)
    pts = config.distinct_points()

    def wall_test(i: int):
        others = np.delete(pts, i, axis=0)
        with np.errstate(over="ignore"):
            walls = others - pts[i]
            offsets = 0.5 * np.einsum("ij,ij->i", walls, walls)
        finite = np.isfinite(offsets)
        if not finite.all():
            far = others[np.argmin(finite)]  # the first False
            raise ValueError(
                f"points {pts[i].tolist()} and {far.tolist()} are too far apart: "
                "the square of their distance overflows float64"
            )
        return lambda g: (walls @ g < offsets[:, None]).all(axis=0)

    tests = [wall_test(i) for i in range(pts.shape[0])]
    probs = _hit_fractions(tests, samples, seed, config.dimension)

    estimate = float(np.sum(probs))
    variance = float(np.sum([p * (1.0 - p) / samples for p in probs]))
    return MCReport(estimate, float(np.sqrt(variance)), samples, seed)


def _max_density(pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max_i phi_n(x - v_i) for a batch of query points x of shape (m, n)."""
    n = pts.shape[1]
    d2 = ((x[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * d2.min(axis=1)) / (2.0 * np.pi) ** (n / 2.0)


# Inner integrals run in blocks of at most this many, which bounds the
# memory of one round of the innermost level in three dimensions.
_DIRECT_BLOCK = 1024


def p_direct(config: Configuration, spec: QuadratureSpec | None = None):
    """Direct quadrature of P = int max_i phi_n(x - v_i) dx for n <= 3.

    Integrates each axis over the union of the windows [c - 9, c + 9]
    around the points' coordinates c (truncation error below 1e-18 per
    point), with iterated adaptive quadrature; each window gets a share of
    its level's tolerance in proportion to its width, and inner levels run
    at a small fraction of the target so the outer adaptive loop sees an
    effectively smooth integrand.  Each round of a level integrates the
    next level at all of its nodes in one :func:`integrate_many` loop, one
    group per node.  Absolute error <= max(spec.abs_tol, 1e-7).  A
    coordinate too large for float64 to place nodes near it within that
    error is refused with ``ValueError``.
    """
    spec = spec or DEFAULT_QUADRATURE
    n = config.dimension
    if n > 3:
        raise DimensionTooLargeError(
            f"direct integration is limited to dimension <= 3, got {n}"
        )
    pts = config.distinct_points()
    target = max(spec.abs_tol, 1e-7)
    far = np.abs(pts).max()
    if np.spacing(far + 9.0) > target:
        raise ValueError(f"coordinate {far:g} is too large to integrate to {target:g} in float64")
    windows = []
    for c in map(np.unique, pts.T):
        gaps = np.flatnonzero(c[1:] - 9.0 > c[:-1] + 9.0)
        windows.append((np.r_[c[0], c[gaps + 1]] - 9.0, np.r_[c[gaps], c[-1]] + 9.0))

    def level(axis: int, prefixes: np.ndarray, tol: float) -> np.ndarray:
        """Integrals over coordinate ``axis``, one per row of ``prefixes``
        (the coordinates before it)."""
        lo, hi = windows[axis]
        width = (hi - lo).sum()
        inner_tol = tol / (4.0 * width)

        def f(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            points = np.empty((x.size, axis + 1))
            points[:, :axis] = prefixes[owner // lo.size].repeat(x.shape[1], axis=0)
            points[:, axis] = x.reshape(-1)
            if axis == n - 1:
                return _max_density(pts, points).reshape(x.shape)
            return np.concatenate([
                level(axis + 1, points[i : i + _DIRECT_BLOCK], inner_tol)
                for i in range(0, len(points), _DIRECT_BLOCK)
            ]).reshape(x.shape)

        m = len(prefixes)
        return integrate_many(
            f, np.tile(lo, m), np.tile(hi, m), np.tile(tol * ((hi - lo) / width), m),
            group=np.arange(m).repeat(lo.size),
        )

    value = level(0, np.empty((1, 0)), target / 2.0)[0]
    return ProbEstimate(value, METHOD_DIRECT, target)


def _union_test(system: HalfspaceSystem):
    """Test for :func:`_hit_fractions`: whether x = g / sqrt(2), a
    variance-1/2 Gaussian point, lies in the union of the halfspaces."""
    offsets = system.offsets[:, None]
    return lambda g: (system.normals @ (g / np.sqrt(2.0)) >= offsets).any(axis=0)


def slice_identity_check(
    config: Configuration,
    y_grid: np.ndarray,
    samples: int,
    seed: int,
    threads: int = 1,
) -> float:
    """Reconstruct P_std(sqrt(2) v) as int_0^inf mu~(C_y) dy over a y grid.

    Each level y gets an independent Monte Carlo estimate of mu~(C_y) from
    substream (seed, level); the integral is a trapezoid over the grid,
    anchored at (0, 1) since C_y covers the whole space as y -> 0.  The
    grid must reach past max_i exp(|v_i|^2); log spacing is recommended
    since mu~(C_y) varies over many orders of magnitude in y.
    """
    if config.dimension > 3:
        raise DimensionTooLargeError("slicing check is limited to dimension <= 3")
    ys = np.sort(np.asarray(y_grid, dtype=float))
    if ys.size < 2 or not np.all(ys > 0):
        raise GridCoverageError("y_grid must contain at least 2 positive levels")
    # Logs of the levels: the envelope itself overflows once |v|^2 > 709.78.
    log_envelope = float(((config.distinct_points() ** 2).sum(axis=1)).max())
    if np.log(ys[-1]) < log_envelope:
        raise GridCoverageError(
            f"y_max = {ys[-1]:g} is below the level envelope exp({log_envelope:g})"
        )

    tests = [_union_test(HalfspaceSystem.at_level(config, y)) for y in ys]
    samples = checked_count("samples", samples, 1)
    checked_count("threads", threads, 1)
    mus = _hit_fractions(tests, samples, seed, config.dimension)

    ys_full = np.concatenate([[0.0], ys])
    mus_full = np.concatenate([[1.0], mus])
    return float(np.trapezoid(mus_full, ys_full))


def plank_product_gap(
    system: PlankSystem, samples: int, seed: int
) -> tuple[MCReport, float]:
    """Standard-Gaussian measure of a plank intersection vs. the marginal product.

    Returns the Monte Carlo estimate of mu(P_1 cap ... cap P_N) together
    with the exact product prod_i (2 Phi(h_i) - 1).  The measure dominates
    the product, with equality when the planks are mutually perpendicular.
    """
    samples = checked_count("samples", samples, 1)
    halfwidths = system.halfwidths[:, None]
    (p,) = _hit_fractions(
        [lambda g: (np.abs(system.directions @ g) <= halfwidths).all(axis=0)],
        samples, seed, system.directions.shape[1],
    )
    report = MCReport(p, float(np.sqrt(p * (1.0 - p) / samples)), samples, seed)
    product = float(np.prod(2.0 * ndtr(system.halfwidths) - 1.0))
    return report, product
