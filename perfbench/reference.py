"""Reference values of P computed apart from gausscode.

Each formula of the paper is integrated with ``scipy.integrate.quad`` over
a scalar integrand built from ``math.erf``; nothing here imports the
package under test.  Breakpoints are passed to ``quad`` at every kink the
integrand can have (the Gaussian's center and the depth where a tiny
pair's box factor switches on), so a narrow feature is never stepped over.

* Axis cells, pairs +-a_i e_i with or without an origin point::

      P = [prod_i erf(a_i / (2 sqrt 2))]
          + 2 sum_j int_{L_j}^inf phi(t - a_j)
                prod_{i != j} erf((a_i^2 + 2 a_j t - a_j^2) / (2 sqrt 2 a_i)) dt

  with L_j = a_j / 2 when the origin is present, else
  (a_j^2 - min_i a_i^2) / (2 a_j).
* Steiner form, k equal pairs of length a plus origin::

      P = 2k int_{a/2}^inf phi(b - a) erf(b / sqrt 2)^(k-1) db + erf(a / (2 sqrt 2))^k

* Regular m-simplex of circumradius r::

      P = m int phi(u) Phi(u + r sqrt(m / (m - 1)))^(m-1) du
"""

from __future__ import annotations

import math

from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)
# Integration runs this many standard deviations past a Gaussian's center;
# the neglected mass is below 1e-30.
SIGMAS = 12.0
QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 500}


def phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def Phi(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def _quad(f, lo: float, hi: float, kinks) -> float:
    if hi <= lo:
        return 0.0
    inside = sorted({p for p in kinks if lo < p < hi})
    value, _ = quad(f, lo, hi, points=inside or None, **QUAD_OPTS)
    return value


def axis_cells(lengths, with_origin: bool) -> float:
    """P of pairs +-a_i e_i (all a_i > 0), plus the origin if ``with_origin``."""
    a = [float(x) for x in lengths]
    if not a or min(a) <= 0:
        raise ValueError("axis_cells needs positive lengths")
    smallest2 = min(x * x for x in a)
    total = 0.0
    for j, aj in enumerate(a):
        others = [ai for i, ai in enumerate(a) if i != j]

        def cell(t, aj=aj, others=others):
            out = phi(t - aj)
            for ai in others:
                out *= math.erf((ai * ai + 2.0 * aj * t - aj * aj) / (2.0 * SQRT2 * ai))
            return out

        lo = 0.5 * aj if with_origin else (aj * aj - smallest2) / (2.0 * aj)
        lo = max(lo, aj - SIGMAS)
        kinks = [aj] + [(aj * aj - ai * ai) / (2.0 * aj) for ai in others]
        total += 2.0 * _quad(cell, lo, aj + SIGMAS, kinks)
    if with_origin:
        total += math.prod(math.erf(x / (2.0 * SQRT2)) for x in a)
    return total


def shell_lengths(lengths, energy: float, zero_floor: float = 1e-6):
    """Rescale lengths onto 2 sum a^2 = energy; (active lengths, has_origin).

    Pairs at or below ``zero_floor`` after rescaling put both their points
    at the origin, which then counts as one extra distinct point.
    """
    scale = math.sqrt(energy / (2.0 * sum(x * x for x in lengths)))
    scaled = [x * scale for x in lengths]
    active = [x for x in scaled if x > zero_floor]
    return active, len(active) < len(scaled)


def steiner(k: int, a: float) -> float:
    """P of k equal pairs of length ``a`` plus the origin."""
    if a == 0:
        return 1.0

    def slice_(b):
        return phi(b - a) * math.erf(b / SQRT2) ** (k - 1)

    lo = max(0.5 * a, a - SIGMAS)
    integral = _quad(slice_, lo, a + SIGMAS, [a])
    return 2.0 * k * integral + math.erf(a / (2.0 * SQRT2)) ** k


def simplex(m: int, radius: float) -> float:
    """P of the regular m-simplex of circumradius ``radius``."""
    shift = radius * math.sqrt(m / (m - 1.0))

    def slice_(u):
        return phi(u) * Phi(u + shift) ** (m - 1)

    return m * _quad(slice_, -SIGMAS, SIGMAS, [0.0, -shift])
