"""Closed quadrature formulas for the correct-decoding functional P.

Throughout the package P(v_1, ..., v_N) is the sum over *distinct* code
points of the Gaussian measure, centered at that point, of the point's
Voronoi region; noise is standard normal per coordinate (density
(2 pi)^{-n/2} exp(-|x|^2/2)).  For a code transmitted with equal priors
this is N times the average correct-decoding probability.

For orthogonal antipodal configurations, slicing each Voronoi region
along its own axis reduces P to one-dimensional integrals:

* k equal pairs +-a e_i plus an origin point::

      P = 2k * int_{a/2}^inf phi(b - a) (2 Phi(b) - 1)^(k-1) db
          + (2 Phi(a/2) - 1)^k

  The second term is the measure of the origin's cube-shaped cell; the
  integral is the measure of one axis cell, whose slice at depth b is a
  (k-1)-cube of half-width b.

* unequal pairs +-a_i e_i (no origin): the slice of cell j at depth t is
  the box with half-widths (a_i^2 + 2 a_j t - a_j^2) / (2 a_i), nonempty
  from t_j = (a_j^2 - min_i a_i^2) / (2 a_j) on, giving

      P = 2 sum_j int_{t_j}^inf phi(t - a_j)
              prod_{i != j} (2 Phi((a_i^2 + 2 a_j t - a_j^2)/(2 a_i)) - 1) dt

* unequal pairs plus an origin point: the origin's cell is the box with
  half-widths a_i/2, and the wall against the origin moves cell j's lower
  limit up to a_j / 2 (which dominates every pair wall)::

      P = prod_i (2 Phi(a_i/2) - 1)
          + 2 sum_j int_{a_j/2}^inf phi(t - a_j)
              prod_{i != j} (2 Phi((a_i^2 + 2 a_j t - a_j^2)/(2 a_i)) - 1) dt

* regular m-simplex of circumradius r: decoding correctly from vertex v_1
  is the event <g, v_i - v_1> <= |v_i - v_1|^2 / 2 for all i.  The
  normalized variables X_i = <g, v_i - v_1>/|v_i - v_1| are standard
  normal and equicorrelated with correlation 1/2, so X_i = (U + U_i)/sqrt(2)
  for independent standard normals U, U_1, ..., and conditioning on U gives

      P = m * int phi(u) Phi(u + r sqrt(m/(m-1)))^(m-1) du

  using |v_i - v_1|^2 = 2 r^2 m/(m-1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .configs import AntipodalLengths
from .gaussian import (
    DEFAULT_QUADRATURE,
    TAIL_SIGMAS,
    QuadratureSpec,
    integrate_gauss_tail,
    integrate_many,
    normal_pdf,
)

METHOD_ANALYTIC = "analytic"
METHOD_DIRECT = "direct"


@dataclass(frozen=True)
class ProbEstimate:
    """A value of the functional P with its method tag and error bound."""

    value: float
    method: str
    abs_error: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_error", float(self.abs_error))
        if not np.isfinite(self.value):
            raise ValueError(f"estimate must be finite, got {self.value}")
        if self.abs_error < 0:
            raise ValueError(f"abs_error must be nonnegative, got {self.abs_error}")


def p_steiner(k: int, a: float, spec: QuadratureSpec | None = None) -> ProbEstimate:
    """P of k equal orthogonal antipodal pairs of length ``a`` plus the origin.

    ``a = 0`` is allowed: all points coincide and P is the whole-space
    measure, 1.  How many points sit at the origin does not matter; the
    origin cell is counted once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"length must be finite and nonnegative, got {a}")
    spec = spec or DEFAULT_QUADRATURE
    tol = spec.abs_tol / (4.0 * k)
    inner = QuadratureSpec(abs_tol=tol)

    def cube_slice(b: np.ndarray) -> np.ndarray:
        return (2.0 * ndtr(b) - 1.0) ** (k - 1)

    integral = integrate_gauss_tail(cube_slice, 0.5 * a, a, inner)
    cube = (2.0 * ndtr(0.5 * a) - 1.0) ** k
    return ProbEstimate(2.0 * k * integral + cube, METHOD_ANALYTIC, spec.abs_tol)


@functools.lru_cache(maxsize=None)
def _others(k: int) -> np.ndarray:
    """Row j lists the k - 1 pair indices i != j, in order (read-only)."""
    others = np.array([[i for i in range(k) if i != j] for j in range(k)], dtype=int)
    others.flags.writeable = False
    return others


def _p_pairs_batch(
    lengths: np.ndarray, include_origin: bool, spec: QuadratureSpec | None = None
) -> np.ndarray:
    """P of each row of a (B, k) stack of nonnegative pair lengths, each row
    with a positive one.

    A zero length is a pair collapsed onto the origin, so its row includes
    the origin point, counted once; ``include_origin`` adds it to every row.
    Row b's value is that of :func:`p_with_origin` or :func:`p_antipodal`
    on its positive lengths in order, bit for bit.
    """
    live = lengths > 0
    counts = live.sum(axis=1).tolist()
    order = sorted(range(len(counts)), key=counts.__getitem__)
    blocks = []
    for c, rows in itertools.groupby(order, key=counts.__getitem__):
        rows = list(rows)
        a = lengths[rows][live[rows]].reshape(len(rows), c)
        blocks.append((a, include_origin or c < lengths.shape[1]))
    out = np.empty(len(counts))
    out[order] = _pair_cells(blocks, spec)
    return out


def _pair_cells(blocks, spec: QuadratureSpec | None) -> np.ndarray:
    """P of each row of each block ``(a, with_origin)``, in order: ``a`` is an
    (R, c) array of positive pair lengths, and ``with_origin`` says whether
    its rows include the origin point.

    The cell of pair j is int_{lower_j}^{a_j + tail} phi(t - a_j)
    prod_{i != j} box_i(t) dt.  The box factor of pair i at depth t is
    2 Phi((a_i^2 + 2 a_j t - a_j^2)/(2 a_i)) - 1, an affine argument in t
    precomputed as slope/intercept per (j, i).  The cells of all rows run
    through one :func:`integrate_many` loop, one group per row, so each
    round of refinement costs a single vectorized evaluation.
    """
    spec = spec or DEFAULT_QUADRATURE
    n_cells = sum(a.size for a, _ in blocks)
    most = max(a.shape[1] for a, _ in blocks)
    # argument_{j,i}(t) = intercept_{j,i} + slope_{j,i} * t.  Cell j's own
    # factor (i = j) would be exactly 1, so cell j keeps the pairs i != j,
    # and a cell of a row with c pairs uses the first c - 1 rows here.
    # Pairs first: the factors of one pair are then one contiguous block.
    slope = np.empty((most - 1, n_cells))
    intercept = np.empty((most - 1, n_cells))
    lower, counts, ends = [], [], [0]
    for a, with_origin in blocks:
        n_rows, c = a.shape
        cells = slice(ends[-1], ends[-1] + a.size)
        square = a**2
        pairs = a[:, _others(c)]
        slope[: c - 1, cells] = (a[:, :, None] / pairs).reshape(a.size, c - 1).T
        intercept[: c - 1, cells] = (
            (pairs**2 - square[:, :, None]) / (2.0 * pairs)
        ).reshape(a.size, c - 1).T
        ends.append(cells.stop)
        counts += [c] * n_rows
        if with_origin:
            # Cell j starts at a_j / 2, behind the origin's wall.
            lower.append(0.5 * a)
        else:
            # Cell j starts where its slice box opens, at
            # (a_j^2 - min_i a_i^2) / (2 a_j).
            lower.append((square - square.min(axis=1, keepdims=True)) / (2.0 * a))
    center = np.concatenate([a for a, _ in blocks], axis=None)
    levels = [a.shape[1] - 1 for a, _ in blocks]

    def integrand(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # The panels come sorted by row, so each block's panels are one run.
        cuts = [int(np.count_nonzero(owner < end)) for end in ends[1:-1]]
        box = np.empty(t.shape)
        for n, i, j in zip(levels, [0, *cuts], [*cuts, owner.size]):
            if i == j:
                continue
            # Box factors of shape (pairs, panels, 15), multiplied over pairs
            o = owner[i:j]
            x = slope[:n].take(o, axis=1)[:, :, None] * t[i:j]
            x += intercept[:n].take(o, axis=1)[:, :, None]
            x = ndtr(x)  # one argument: perfbench's tracer wraps ndtr(x) to count
            x *= 2.0
            x -= 1.0
            x.prod(axis=0, out=box[i:j])
        box *= normal_pdf(t - center[owner][:, None])
        return box

    counts = np.array(counts)
    row = np.repeat(np.arange(counts.size), counts)
    tol_each = spec.abs_tol / (4.0 * counts)
    total = 2.0 * integrate_many(
        integrand, np.concatenate(lower, axis=None), center + TAIL_SIGMAS,
        tol_each[row], initial_panels=4, group=row,
    )
    # The origin's own cell is the box with half-widths a_i / 2.
    cubes = [
        (2.0 * ndtr(0.5 * a) - 1.0).prod(axis=1) if with_origin else np.zeros(len(a))
        for a, with_origin in blocks
    ]
    return total + np.concatenate(cubes)


def p_antipodal(
    lengths: AntipodalLengths, spec: QuadratureSpec | None = None
) -> ProbEstimate:
    """P of orthogonal antipodal pairs +-a_i e_i with no origin point.

    Degenerate pairs are rejected at :class:`AntipodalLengths` construction
    (the box half-widths divide by a_i); model a merged pair explicitly via
    ``include_origin`` and :func:`p_with_origin` instead.
    """
    if lengths.include_origin:
        raise ValueError("lengths.include_origin must be False; use p_with_origin")
    spec = spec or DEFAULT_QUADRATURE
    value = _pair_cells([(np.array([lengths.lengths]), False)], spec)[0]
    return ProbEstimate(value, METHOD_ANALYTIC, spec.abs_tol)


def p_with_origin(
    lengths: AntipodalLengths, spec: QuadratureSpec | None = None
) -> ProbEstimate:
    """P of orthogonal antipodal pairs +-a_i e_i plus a point at the origin."""
    if not lengths.include_origin:
        raise ValueError("lengths.include_origin must be True; use p_antipodal")
    spec = spec or DEFAULT_QUADRATURE
    value = _pair_cells([(np.array([lengths.lengths]), True)], spec)[0]
    return ProbEstimate(value, METHOD_ANALYTIC, spec.abs_tol)


def p_simplex(
    m: int, radius: float, spec: QuadratureSpec | None = None
) -> ProbEstimate:
    """P of a regular m-simplex of circumradius ``radius`` (see module notes).

    ``radius = 0`` is allowed: all vertices coincide and P = 1.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    spec = spec or DEFAULT_QUADRATURE
    shift = radius * np.sqrt(m / (m - 1.0))
    inner = QuadratureSpec(abs_tol=spec.abs_tol / (2.0 * m))

    def cone_slice(u: np.ndarray) -> np.ndarray:
        return ndtr(u + shift) ** (m - 1)

    integral = integrate_gauss_tail(cone_slice, -TAIL_SIGMAS, 0.0, inner)
    return ProbEstimate(m * integral, METHOD_ANALYTIC, spec.abs_tol)
