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
    inner = QuadratureSpec(abs_tol=tol, max_subdivisions=spec.max_subdivisions)

    def cube_slice(b: np.ndarray) -> np.ndarray:
        return (2.0 * ndtr(b) - 1.0) ** (k - 1)

    integral = integrate_gauss_tail(cube_slice, 0.5 * a, a, inner)
    cube = (2.0 * ndtr(0.5 * a) - 1.0) ** k
    return ProbEstimate(2.0 * k * integral + cube, METHOD_ANALYTIC, spec.abs_tol)


def _axis_cell_integrals(
    a: np.ndarray,
    lower: np.ndarray,
    abs_tol_each: float,
    max_subdivisions: int,
) -> float:
    """Sum over j of int_{lower_j}^{a_j + tail} phi(t - a_j) prod_{i!=j} box_i(t) dt.

    All k integrals run through one :func:`integrate_many` loop, so each
    refinement round costs a single vectorized evaluation.  The box factor
    for pair i at depth t is 2 Phi((a_i^2 + 2 a_j t - a_j^2)/(2 a_i)) - 1,
    an affine argument in t precomputed as slope/intercept per (j, i).
    """
    # argument_{j,i}(t) = intercept_{j,i} + slope_{j,i} * t.  Cell j's own
    # factor (i = j) would be exactly 1, so row j keeps only the k - 1 pairs
    # i != j, in order of i.
    k = a.size
    others = ~np.eye(k, dtype=bool)
    slope = (a[:, None] / a[None, :])[others].reshape(k, k - 1)
    intercept = (a[None, :] ** 2 - a[:, None] ** 2) / (2.0 * a[None, :])
    intercept = intercept[others].reshape(k, k - 1)

    def integrand(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        args = intercept[owner][:, None, :] + slope[owner][:, None, :] * t[:, :, None]
        factors = 2.0 * ndtr(args) - 1.0  # (panels, 15, k - 1)
        return normal_pdf(t - a[owner][:, None]) * factors.prod(axis=2)

    return integrate_many(
        integrand, lower, a + TAIL_SIGMAS, abs_tol_each, max_subdivisions,
        initial_panels=4,
    )


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
    a = np.asarray(lengths.lengths, dtype=float)
    k = a.size
    lower = (a**2 - (a**2).min()) / (2.0 * a)
    tol_each = spec.abs_tol / (4.0 * k)
    total = 2.0 * _axis_cell_integrals(a, lower, tol_each, spec.max_subdivisions)
    return ProbEstimate(total, METHOD_ANALYTIC, spec.abs_tol)


def p_with_origin(
    lengths: AntipodalLengths, spec: QuadratureSpec | None = None
) -> ProbEstimate:
    """P of orthogonal antipodal pairs +-a_i e_i plus a point at the origin."""
    if not lengths.include_origin:
        raise ValueError("lengths.include_origin must be True; use p_antipodal")
    spec = spec or DEFAULT_QUADRATURE
    a = np.asarray(lengths.lengths, dtype=float)
    k = a.size
    lower = 0.5 * a
    tol_each = spec.abs_tol / (4.0 * k)
    total = 2.0 * _axis_cell_integrals(a, lower, tol_each, spec.max_subdivisions)
    cube = float(np.prod(2.0 * ndtr(0.5 * a) - 1.0))
    return ProbEstimate(total + cube, METHOD_ANALYTIC, spec.abs_tol)


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
    inner = QuadratureSpec(
        abs_tol=spec.abs_tol / (2.0 * m), max_subdivisions=spec.max_subdivisions
    )

    def cone_slice(u: np.ndarray) -> np.ndarray:
        return ndtr(u + shift) ** (m - 1)

    integral = integrate_gauss_tail(cone_slice, -TAIL_SIGMAS, 0.0, inner)
    return ProbEstimate(m * integral, METHOD_ANALYTIC, spec.abs_tol)
