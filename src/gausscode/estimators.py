"""Configuration-agnostic oracles for the functional P.

Four independent routes:

* :func:`mc_decode` simulates nearest-point decoding directly.  Noise g
  sent from v_i decodes to v_i exactly when g . w_j < |w_j|^2 / 2 for
  every w_j = v_j - v_i (j != i), which is |g|^2 < |g - w_j|^2 expanded,
  so each chunk of samples is tested with one matrix product.
* :func:`p_direct` integrates max_i phi_n(x - v_i) over a box by iterated
  adaptive quadrature (n <= 3).
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

Monte Carlo work is split into per-point / per-level substreams keyed as
(seed, index), so estimates are reproducible and independent of how the
work is scheduled across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .analytic import METHOD_DIRECT, ProbEstimate
from .configs import Configuration
from .gaussian import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    RandomStream,
    integrate_many,
)

_CHUNK = 1 << 19


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
        unit = np.abs(np.linalg.norm(directions, axis=1) - 1.0)
        if np.any(unit > 1e-12):
            raise ValueError("directions must be unit norm to 1e-12")
        if not np.all(halfwidths > 0):
            raise ValueError("halfwidths must be positive")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "halfwidths", halfwidths)


def _hit_fraction(
    stream: RandomStream, samples: int, dimension: int, inside
) -> float:
    """Share of ``samples`` standard normal draws for which ``inside`` holds.

    Draws (m, dimension) arrays of at most ``_CHUNK`` rows from ``stream``
    and passes each to the vectorized test ``inside``, which returns one
    boolean per row.
    """
    hits = 0
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        hits += int(np.count_nonzero(inside(stream.normal((m, dimension)))))
        done += m
    return hits / samples


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
    draws from substream (seed, i), making the result independent of
    thread count; the standard error is the root-sum-square of the
    per-point binomial errors.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    pts = config.distinct_points()
    n_pts = pts.shape[0]

    def point_prob(i: int) -> float:
        walls = np.delete(pts, i, axis=0) - pts[i]
        offsets = 0.5 * np.einsum("ij,ij->i", walls, walls)
        return _hit_fraction(
            RandomStream(seed, i),
            samples,
            config.dimension,
            lambda g: (g @ walls.T < offsets).all(axis=1),
        )

    if threads > 1 and n_pts > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            probs = list(pool.map(point_prob, range(n_pts)))
    else:
        probs = [point_prob(i) for i in range(n_pts)]

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

    Integrates over the box [min coord - 9, max coord + 9] per axis
    (truncation error below 1e-18 per point), with iterated adaptive
    quadrature; inner levels run at a small fraction of the target so the
    outer adaptive loop sees an effectively smooth integrand.  Each round
    of a level integrates the next level at all of its nodes in one
    :func:`integrate_many` loop, one group per node.  Absolute error <=
    max(spec.abs_tol, 1e-7).
    """
    spec = spec or DEFAULT_QUADRATURE
    n = config.dimension
    if n > 3:
        raise DimensionTooLargeError(
            f"direct integration is limited to dimension <= 3, got {n}"
        )
    pts = config.distinct_points()
    target = max(spec.abs_tol, 1e-7)
    los = pts.min(axis=0) - 9.0
    his = pts.max(axis=0) + 9.0
    widths = his - los

    def level(axis: int, prefixes: np.ndarray, tol: float) -> np.ndarray:
        """Integrals over coordinate ``axis``, one per row of ``prefixes``
        (the coordinates before it)."""
        inner_tol = tol / (4.0 * widths[axis])

        def f(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            points = np.empty((x.size, axis + 1))
            points[:, :axis] = prefixes[owner].repeat(x.shape[1], axis=0)
            points[:, axis] = x.reshape(-1)
            if axis == n - 1:
                return _max_density(pts, points).reshape(x.shape)
            return np.concatenate([
                level(axis + 1, points[i : i + _DIRECT_BLOCK], inner_tol)
                for i in range(0, len(points), _DIRECT_BLOCK)
            ]).reshape(x.shape)

        m = len(prefixes)
        return integrate_many(
            f, np.full(m, los[axis]), np.full(m, his[axis]), tol,
            spec.max_subdivisions, group=np.arange(m),
        )

    value = level(0, np.empty((1, 0)), target / 2.0)[0]
    return ProbEstimate(value, METHOD_DIRECT, target)


def measure_union_stream(
    system: HalfspaceSystem, samples: int, stream: RandomStream
) -> float:
    """Monte Carlo measure of a union of halfspaces under the variance-1/2
    Gaussian, drawing from a caller-owned stream."""

    def inside(g: np.ndarray) -> np.ndarray:
        x = g / np.sqrt(2.0)
        return (x @ system.normals.T >= system.offsets).any(axis=1)

    return _hit_fraction(stream, samples, system.normals.shape[1], inside)


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
    envelope = float(np.exp(((config.distinct_points() ** 2).sum(axis=1)).max()))
    if ys[-1] < envelope:
        raise GridCoverageError(
            f"y_max = {ys[-1]:g} is below the level envelope {envelope:g}"
        )

    def level_measure(idx: int) -> float:
        system = HalfspaceSystem.at_level(config, ys[idx])
        return measure_union_stream(system, samples, RandomStream(seed, idx))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mus = list(pool.map(level_measure, range(ys.size)))
    else:
        mus = [level_measure(i) for i in range(ys.size)]

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
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    p = _hit_fraction(
        RandomStream(seed, 0),
        samples,
        system.directions.shape[1],
        lambda g: (np.abs(g @ system.directions.T) <= system.halfwidths).all(axis=1),
    )
    report = MCReport(p, float(np.sqrt(p * (1.0 - p) / samples)), samples, seed)
    product = float(np.prod(2.0 * ndtr(system.halfwidths) - 1.0))
    return report, product
