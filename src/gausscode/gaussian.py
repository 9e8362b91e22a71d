"""Standard-normal primitives shared by the rest of the package.

Provides the CDF/PDF pair, an adaptive Gauss-Kronrod integrator for
Gaussian-weighted tail integrals, and deterministic seedable random
streams.  Everything here is pure given its inputs; distinct
``RandomStream`` instances may be used from different workers, but a
single stream must not be advanced concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Truncation of semi-infinite Gaussian-weighted integrals, in standard
# deviations past the weight's center.  The neglected tail mass for
# |f| <= 1 is below 1e-16, under every tolerance used in the package.
TAIL_SIGMAS = 8.5

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Nodes are sorted; the embedded Gauss nodes sit at the odd indices.
_XK_HALF = [
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
]
_WK_HALF = [
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
]
_WK_CENTER = 0.209482141084728
_WG_HALF = [0.129484966168870, 0.279705391489277, 0.381830050505119]
_WG_CENTER = 0.417959183673469

_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(_WK_HALF + [_WK_CENTER] + list(reversed(_WK_HALF)))
_WG = np.array(_WG_HALF + [_WG_CENTER] + list(reversed(_WG_HALF)))


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget runs out before the tolerance is met."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute-error target and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()


def normal_cdf(x):
    """Standard normal CDF Phi(x) = int_{-inf}^x exp(-t^2/2)/sqrt(2 pi) dt.

    Accepts scalars or arrays.  Backed by the complementary error function,
    which keeps full relative accuracy deep into both tails.
    """
    out = ndtr(x)
    return float(out) if np.ndim(x) == 0 else out


def normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2 pi); scalar or array."""
    out = np.exp(-0.5 * np.square(x)) / SQRT_2PI
    return float(out) if np.ndim(x) == 0 else out


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    abs_tol_each,
    max_subdivisions: int = 2000,
    initial_panels: int = 8,
    group: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group sums of the integrals of a vectorized ``f`` over [lo_j, hi_j].

    Adaptive bisection with a 15-point Gauss-Kronrod rule per panel; the
    |K15 - G7| discrepancy is the (conservative) panel error estimate, and a
    panel is accepted once its estimate fits its width-proportional share of
    ``abs_tol_each`` (a scalar, or one value per integral) within its own
    interval, which must have hi_j > lo_j.  Each round evaluates every
    pending panel of every integral in one call ``f(t, owner)``: ``t`` holds
    the nodes, shape (panels, 15), and ``owner`` the index j of the integral
    each panel belongs to.

    Integral j adds to total ``group[j]`` (default: one group, 0), and the
    result holds the totals of groups 0..max(group).  A group is computed
    exactly as a call on its integrals alone would compute it, bit for bit:
    its accepted panels are summed in that call's order, and it raises
    :class:`QuadratureError` when that call would, once the group needs more
    than ``max_subdivisions`` panel splits.  ``f`` sees the panels sorted
    by group, each group's in that call's order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tol = np.asarray(abs_tol_each, dtype=float)
    tol_scalar = float(tol) if tol.ndim == 0 else None
    n_groups = 1 if group is None else int(group.max()) + 1
    widths = hi - lo
    # The values of np.linspace(lo, hi, initial_panels + 1, axis=1), at less
    # overhead per call.
    step = widths / initial_panels
    edges = np.arange(initial_panels + 1) * step[:, None] + lo[:, None]
    edges[:, -1] = hi
    owner = np.arange(lo.size).repeat(initial_panels)
    a = edges[:, :-1].reshape(-1)
    b = edges[:, 1:].reshape(-1)
    totals = np.zeros(n_groups)
    splits = np.zeros(n_groups, dtype=int) if n_groups > 1 else None
    worst = 0  # the most splits any one group has needed
    while owner.size:
        if n_groups > 1:
            # A stable sort keeps each group's panels in their one-group order.
            order = np.argsort(group[owner], kind="stable")
            owner, a, b = owner[order], a[order], b[order]
        width = b - a
        half = 0.5 * width
        y = f((0.5 * (a + b))[:, None] + half[:, None] * _XK, owner)
        k15 = (y * _WK).sum(axis=1) * half
        g7 = (y[:, 1::2] * _WG).sum(axis=1) * half
        panel_tol = tol_scalar if tol_scalar is not None else tol[owner]
        ok = np.abs(k15 - g7) <= panel_tol * width / widths[owner]
        bad = ~ok
        if n_groups == 1:
            totals[0] += k15[ok].sum()
            owner, a, b = owner[bad], a[bad], b[bad]
            worst += owner.size
        else:
            _add_by_group(totals, k15[ok], group[owner[ok]])
            owner, a, b = owner[bad], a[bad], b[bad]
            splits += np.bincount(group[owner], minlength=n_groups)
            worst = splits.max()
        if worst > max_subdivisions:
            mine = slice(None) if n_groups == 1 else group == splits.argmax()
            raise QuadratureError(
                f"needed more than {max_subdivisions} subdivisions on "
                f"{lo[mine].size} interval(s) within "
                f"[{lo[mine].min()}, {hi[mine].max()}] "
                f"for abs_tol={np.broadcast_to(tol, lo.shape)[mine].min()}"
            )
        if not owner.size:
            break
        m = 0.5 * (a + b)
        owner = np.concatenate([owner, owner])
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
    return totals


def _add_by_group(totals: np.ndarray, values: np.ndarray, group: np.ndarray) -> None:
    """totals[g] += the sum of the values of group g, for ``group`` sorted.

    Each group's values are summed as one slice by NumPy's pairwise
    ``sum``, so the rounding is that of a one-group call.
    ``np.add.reduceat`` and ``np.bincount`` sum in another order and are
    not bit-identical to it.
    """
    if not values.size:
        return
    cuts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
    for g, i, j in zip(group[[0, *cuts]].tolist(), [0, *cuts], [*cuts, values.size]):
        totals[g] += values[i:j].sum()


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    max_subdivisions: int = 2000,
) -> float:
    """Integrate a vectorized ``f`` over [lo, hi] to ``abs_tol``.

    The one-integral face of :func:`integrate_many`, from 8 initial panels.
    """
    if hi <= lo:
        return 0.0
    return float(
        integrate_many(lambda t, owner: f(t), [lo], [hi], abs_tol, max_subdivisions)[0]
    )


def integrate_gauss_tail(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    center: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Integral of normal_pdf(t - center) * f(t) over [lower, +inf).

    ``f`` must be vectorized and bounded by 1 in absolute value; under that
    bound the semi-infinite range may be truncated at ``center +
    TAIL_SIGMAS`` (tail mass < 1e-16), after which the finite interval is
    integrated adaptively to ``spec.abs_tol``.
    """
    spec = spec or DEFAULT_QUADRATURE
    hi = center + TAIL_SIGMAS
    if lower >= hi:
        return 0.0

    def weighted(t: np.ndarray) -> np.ndarray:
        return normal_pdf(t - center) * f(t)

    return integrate_adaptive(
        weighted, lower, hi, spec.abs_tol, spec.max_subdivisions
    )


@dataclass
class RandomStream:
    """Deterministic Gaussian stream keyed by (seed, stream_index).

    Identical keys reproduce identical sequences within one build of the
    package; distinct stream indices give statistically independent
    streams (PCG64 seeded through numpy's SeedSequence hierarchy), which
    is what makes per-point / per-level Monte Carlo order-independent.
    """

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream_index < 0:
            raise ValueError("seed and stream_index must be nonnegative")
        self._gen = np.random.default_rng([self.seed, self.stream_index])

    def normal(self, shape=None) -> np.ndarray:
        """Draw standard normal variates, advancing the stream."""
        return self._gen.standard_normal(shape)
