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

* collapsed pairs: a pair of length zero puts both its points at the
  origin, and any number of them make one origin point.  So a row of
  lengths with zeros has the P of its positive lengths, in order, plus
  the origin.

  A stack of rows is evaluated as one array: each row's positive lengths
  move to the front, in order, and the far length F = 1e150 pads the row
  to the most positive lengths of any row.  The padding is exact.  In
  cell j a far pair's box factor has argument about (F^2 - a_j^2)/(2F),
  near 5e149, and its origin-cube factor is 2 Phi(F/2) - 1; both are
  exactly 1.0 in floating point, and F^2 = 1e300 stays finite.  Factors
  multiply along the pair axis in order, so trailing factors of 1.0
  leave every bit of a product alone, and a far pair owns no cell.

* regular m-simplex of circumradius r: decoding correctly from vertex v_1
  is the event <g, v_i - v_1> <= |v_i - v_1|^2 / 2 for all i.  The
  normalized variables X_i = <g, v_i - v_1>/|v_i - v_1| are standard
  normal and equicorrelated with correlation 1/2, so X_i = (U + U_i)/sqrt(2)
  for independent standard normals U, U_1, ..., and conditioning on U gives

      P = m * int phi(u) Phi(u + r sqrt(m/(m-1)))^(m-1) du

  using |v_i - v_1|^2 = 2 r^2 m/(m-1).
"""

from __future__ import annotations

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

# The length that pads each row of a pair stack (see module notes).
_FAR = 1e150


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


def _p_pairs(
    lengths: np.ndarray, include_origin: bool, spec: QuadratureSpec | None = None
) -> np.ndarray:
    """P of each row of a (B, k) stack of nonnegative pair lengths, each row
    with a positive one.

    A zero length is a pair collapsed onto the origin, so its row includes
    the origin point, counted once; ``include_origin`` adds it to every row.
    Row b's value is that of :func:`p_with_origin` or :func:`p_antipodal`
    on its positive lengths in order, bit for bit.

    The cell of pair j is int_{lower_j}^{a_j + tail} phi(t - a_j)
    prod_{i != j} box_i(t) dt.  The box factor of pair i at depth t is
    2 Phi((a_i^2 + 2 a_j t - a_j^2)/(2 a_i)) - 1, an affine argument in t
    precomputed as slope/intercept per (j, i).  The cells of all rows run
    through one :func:`integrate_many` loop, one group per row, so each
    round of refinement costs a single vectorized evaluation.
    """
    spec = spec or DEFAULT_QUADRATURE
    live = lengths > 0
    counts = live.sum(axis=1)
    with_origin = include_origin | (counts < lengths.shape[1])
    # Each row's positive lengths move to the front, in order, and the far
    # pair pads the row to the most live pairs of any row (see module
    # notes); only the front pairs own cells.
    k = counts.max()
    front = np.arange(k) < counts[:, None]
    a = np.full((len(counts), k), _FAR)
    a[front] = lengths[live]
    square = a**2
    # Row j lists the k - 1 pair indices i != j, in order: cell j's own
    # factor would be exactly 1.
    others = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])
    pairs = a[:, others]
    # argument_{j,i}(t) = intercept_{j,i} + slope_{j,i} * t, pairs first: the
    # factors of one pair are then one contiguous block.
    slope = np.ascontiguousarray((a[:, :, None] / pairs)[front].T)
    intercept = np.ascontiguousarray(
        ((pairs**2 - square[:, :, None]) / (2.0 * pairs))[front].T
    )
    # Cell j starts at a_j / 2, behind the origin's wall, or else where its
    # slice box opens, at (a_j^2 - min_i a_i^2) / (2 a_j).
    lower = np.where(
        with_origin[:, None],
        0.5 * a,
        (square - square.min(axis=1, keepdims=True)) / (2.0 * a),
    )[front]
    center = a[front]

    def integrand(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # Box factors of shape (pairs, panels, 15), multiplied over pairs
        x = slope.take(owner, axis=1)[:, :, None] * t
        x += intercept.take(owner, axis=1)[:, :, None]
        x = ndtr(x)  # one argument: perfbench's tracer wraps ndtr(x) to count
        x *= 2.0
        x -= 1.0
        box = x.prod(axis=0)
        box *= normal_pdf(t - center[owner][:, None])
        return box

    row = np.repeat(np.arange(len(counts)), counts)
    tol_each = spec.abs_tol / (4.0 * counts)
    total = 2.0 * integrate_many(
        integrand, lower, center + TAIL_SIGMAS, tol_each[row],
        initial_panels=4, group=row,
    )
    # The origin's own cell is the box with half-widths a_i / 2.
    cube = (2.0 * ndtr(0.5 * a) - 1.0).prod(axis=1)
    return total + np.where(with_origin, cube, 0.0)


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
    value = _p_pairs(np.array([lengths.lengths]), False, spec)[0]
    return ProbEstimate(value, METHOD_ANALYTIC, spec.abs_tol)


def p_with_origin(
    lengths: AntipodalLengths, spec: QuadratureSpec | None = None
) -> ProbEstimate:
    """P of orthogonal antipodal pairs +-a_i e_i plus a point at the origin."""
    if not lengths.include_origin:
        raise ValueError("lengths.include_origin must be True; use p_antipodal")
    spec = spec or DEFAULT_QUADRATURE
    value = _p_pairs(np.array([lengths.lengths]), True, spec)[0]
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
