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
  (k-1)-cube of half-width b.  A column of lengths at one k runs as one
  :func:`integrate_many` loop, one group per length, bit for bit as each
  length alone.  Its cubes stay scalar powers: NumPy's SIMD array
  ``power`` can round off the scalar ``pow``.

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

* narrow layers: in cell j, pair i's box factor rises from its value at
  the lower limit to 1 within a few a_i / a_j above it.  A cell starts
  from 4 panels, and when a_i / a_j is below the gap from the lower limit
  to the first Kronrod node, the rule need not see that rise at all: each
  node reads the factor as 1 and the cell overstates P by up to about
  0.64 a_i / a_j.  Such a cell's integrand records its lowest node, and
  the refinement usually puts one inside every layer.  Only a cell with a
  layer that no node reached is checked: the first starting panel, which
  holds its layers, is integrated again, whole and cut at
  TAIL_SIGMAS * a_i / a_j above the lower limit for each narrow pair i;
  the cut value is taken when the two differ by more than the cell's
  tolerance.

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

from .configs import AntipodalLengths, checked_count
from .gaussian import (
    DEFAULT_QUADRATURE,
    TAIL_SIGMAS,
    QuadratureSpec,
    deferred_ndtr,
    integrate_gauss_tail,
    integrate_many,
    normal_pdf,
)

ndtr = deferred_ndtr(globals())

METHOD_ANALYTIC = "analytic"
METHOD_DIRECT = "direct"

# The length that pads each row of a pair stack (see module notes).
_FAR = 1e150
# Each pair cell starts from this many panels; the first Kronrod node of the
# first one sits _FIRST_NODE of the cell's depth above its lower limit.
_PANELS = 4
_FIRST_NODE = (1.0 - 0.991455371120813) / (2 * _PANELS)


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
    k = checked_count("k", k, 1)
    spec = spec or DEFAULT_QUADRATURE
    value = _p_steiner_column(k, np.array([float(a)]), spec)[0]
    return ProbEstimate(value, METHOD_ANALYTIC, spec.abs_tol)


def _p_steiner_column(k: int, a: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """P of k equal pairs plus the origin at each length in ``a`` (module notes).
    A length that is not finite and nonnegative, or whose square overflows
    float64, is refused before any integral."""
    bad = a[~(np.isfinite(a) & (a >= 0))]
    if bad.size:
        raise ValueError(f"length must be finite and nonnegative, got {bad[0]}")
    if a.size and (message := _too_large(float(a.max()))):
        raise ValueError(message)

    def integrand(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return normal_pdf(t - a[owner][:, None]) * (2.0 * ndtr(t) - 1.0) ** (k - 1)

    tol = spec.abs_tol / (4.0 * k)
    integral = integrate_many(integrand, 0.5 * a, a + TAIL_SIGMAS, tol, group=np.arange(a.size))
    cube = [b**k for b in 2.0 * ndtr(0.5 * a) - 1.0]  # scalar powers (see module notes)
    return 2.0 * k * integral + cube


def _too_large(a: float) -> str:
    """Why pair length ``a`` overflows float64, its square not being finite;
    empty when it does not."""
    if math.isfinite(a * a):
        return ""
    return f"pair length {a} is too large: its square overflows float64"


def _overflow(lo: float, hi: float) -> str:
    """Why the pair cells of lengths within [lo, hi] overflow float64: a
    square, a slope a_j / a_i or slope * (a_j + TAIL_SIGMAS) is not finite.
    Empty when they do not."""
    if message := _too_large(hi):
        return message
    if not math.isfinite(hi / lo * (hi + TAIL_SIGMAS)):
        return f"pair length {lo} is too small beside {hi}: the cell slopes overflow float64"
    return ""


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
    round of refinement costs a single vectorized evaluation.  A row whose
    cells would overflow float64 (:func:`_overflow`) is refused with
    ``ValueError`` before any integral.
    """
    spec = spec or DEFAULT_QUADRATURE
    live = lengths > 0
    values = lengths[live]
    shortest, longest = float(values.min()), float(values.max())
    # One test on the whole stack; only a stack that fails it is searched
    # for the row at fault, so a row is refused exactly when it would be alone.
    if _overflow(shortest, longest):
        for row in lengths:
            if message := _overflow(float(row[row > 0].min()), float(row.max())):
                raise ValueError(message)
    counts = live.sum(axis=1)
    with_origin = include_origin | (counts < lengths.shape[1])
    # Each row's positive lengths move to the front, in order, and the far
    # pair pads the row to the most live pairs of any row (see module
    # notes); only the front pairs own cells.
    k = counts.max()
    front = np.arange(k) < counts[:, None]
    a = np.full((len(counts), k), _FAR)
    a[front] = values
    square = a**2
    # Row j lists the k - 1 pair indices i != j, in order: cell j's own
    # factor would be exactly 1.
    others = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])
    pairs = a[:, others][front]
    # argument_{j,i}(t) = intercept_{j,i} + slope_{j,i} * t, pairs first: the
    # factors of one pair are then one contiguous block.
    center = a[front]
    slope = np.ascontiguousarray((center[:, None] / pairs).T)
    intercept = np.ascontiguousarray(
        ((pairs**2 - square[front][:, None]) / (2.0 * pairs)).T
    )
    # Cell j starts at a_j / 2, behind the origin's wall, or else where its
    # slice box opens, at (a_j^2 - min_i a_i^2) / (2 a_j).
    lower = np.where(
        with_origin[:, None],
        0.5 * a,
        (square - square.min(axis=1, keepdims=True)) / (2.0 * a),
    )[front]

    row = np.repeat(np.arange(len(counts)), counts)
    tol_each = (spec.abs_tol / (4.0 * counts))[row]
    upper = center + TAIL_SIGMAS
    integrand = _cell_integrand(slope, intercept, center)
    # Pair i's factor of cell j's box rises within a layer about a_i / a_j
    # deep above the lower limit, which the nodes can miss where it is finer
    # than the gap below the cell's first node (module notes).  Far pairs
    # have no layer.  The flag, evaluated at the stack's steepest slope and
    # deepest cell, bounds every cell's flag (each rounding is monotone), so
    # a stack that fails it has no layer to look for.
    flagged = longest / shortest * (_FIRST_NODE * (longest + TAIL_SIGMAS)) > 1.0
    if flagged:
        narrow = (slope * (_FIRST_NODE * (upper - lower)) > 1.0) & (pairs.T < _FAR)
        flagged = narrow.any()
    if flagged:
        # Record the lowest node of each cell, over every round.
        lowest = upper.copy()
        cells = integrand

        def integrand(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
            np.minimum.at(lowest, owner, t[:, 0])
            return cells(t, owner)

    total = 2.0 * integrate_many(
        integrand, lower, upper, tol_each, initial_panels=_PANELS, group=row,
    )
    if flagged:
        # A cell is checked, at all of its narrow layers, only when one of
        # them holds no node of its refined panels.
        narrow &= (narrow & (slope * (lowest - lower) > 1.0)).any(axis=0)
        if narrow.any():
            np.add.at(total, row, _layer_correction(slope, intercept, center, lower, upper,
                                                    tol_each, narrow))
    # The origin's own cell is the box with half-widths a_i / 2.
    cube = (2.0 * ndtr(0.5 * a) - 1.0).prod(axis=1)
    return total + np.where(with_origin, cube, 0.0)


def _cell_integrand(slope: np.ndarray, intercept: np.ndarray, center: np.ndarray):
    """The integrand f(t, owner) of the pair cells whose columns of box-factor
    slopes and intercepts, and whose centers, are given (see :func:`_p_pairs`)."""

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

    return integrand


def _layer_correction(slope, intercept, center, lower, upper, tol, narrow) -> np.ndarray:
    """What each cell adds to its P once its narrow layers are cut apart.

    ``narrow[i, j]`` marks pair i's layer in cell j; :func:`_p_pairs` marks
    only the cells with a layer that no node of its own loop reached.  The
    layers lie in the first of the cell's starting panels, which
    :func:`integrate_many` refines apart from the others.  So only that
    panel is integrated again: whole, and cut TAIL_SIGMAS layer depths
    above the lower limit, past which the pair's factor is 1 to double
    precision, for each narrow pair.  Each piece then holds at most one
    layer's rise, with its first node far inside it.  The cut value
    replaces the whole one only when they differ by more than the cell's
    tolerance, so a cell whose layers the adaptive rule found keeps its
    value, bit for bit.
    """
    cells = np.flatnonzero(narrow.any(axis=0))
    n = cells.size
    bottom = lower[cells]
    top = (upper[cells] - bottom) / _PANELS + bottom  # integrate_many's first edge
    depth = TAIL_SIGMAS / np.where(narrow[:, cells], slope[:, cells], np.inf)
    edges = np.sort(np.vstack([bottom, bottom + depth, top]), axis=0).T
    lo, hi = edges[:, :-1], edges[:, 1:]
    # Empty pieces go: the cuts of other pairs sit on the lower limit, and
    # equal pairs cut at one depth.
    keep = hi > lo
    pieces = keep.sum(axis=1)
    panel_tol = tol[cells] / _PANELS
    owner = np.concatenate([cells, np.repeat(cells, pieces)])
    values = integrate_many(
        _cell_integrand(slope[:, owner], intercept[:, owner], center[owner]),
        np.concatenate([bottom, lo[keep]]),
        np.concatenate([top, hi[keep]]),
        np.concatenate([panel_tol, np.repeat(panel_tol / pieces, pieces)]),
        initial_panels=1,
        group=np.concatenate([np.arange(n), n + np.repeat(np.arange(n), pieces)]),
    )
    change = values[n:] - values[:n]
    correction = np.zeros(len(lower))
    correction[cells] = np.where(np.abs(change) > tol[cells], 2.0 * change, 0.0)
    return correction


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
    m = checked_count("m", m, 2)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    spec = spec or DEFAULT_QUADRATURE
    shift = radius * np.sqrt(m / (m - 1.0))
    inner = QuadratureSpec(abs_tol=spec.abs_tol / (2.0 * m))

    def cone_slice(u: np.ndarray) -> np.ndarray:
        return ndtr(u + shift) ** (m - 1)

    integral = integrate_gauss_tail(cone_slice, -TAIL_SIGMAS, 0.0, inner)
    return ProbEstimate(m * integral, METHOD_ANALYTIC, spec.abs_tol)
