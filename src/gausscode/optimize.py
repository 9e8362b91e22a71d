"""Constrained maximization of P over antipodal pair lengths at fixed energy.

The search space is the simplex of energy shares s_i = 2 a_i^2 / E, which
keeps every evaluated candidate exactly feasible and makes the boundary
(pairs of length zero, i.e. points merged into the origin) reachable.
Global search is basin hopping: structured starts covering every count of
active pairs, then random share kicks around the incumbent, each refined
by a derivative-free Nelder-Mead descent projected onto the simplex and
accepted only on strict improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import _p_pairs
from .configs import EnergyBudget
from .gaussian import QuadratureError, QuadratureSpec, RandomStream


# Scale of the Gaussian share kick of each basin hop.
_PERTURBATION_SCALE = 0.3
# Nelder-Mead stops once its vertex values agree to this.
_LOCAL_TOL = 1e-9
# Pairs at or below this length merge into the origin.
_ZERO_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimSettings:
    """Basin-hopping knobs: the number of random hops and their seed."""

    hops: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OptimResult:
    """Optimized pair lengths (sorted descending, zeros snapped) and diagnostics.

    ``evaluations`` counts the candidates whose P was computed, and
    ``batches`` the :func:`objective` calls that computed them.
    """

    lengths: tuple[float, ...]
    p_value: float
    hops_taken: int
    improved_at: tuple[int, ...]
    converged: bool
    evaluations: int
    batches: int


def objective(
    lengths,
    include_origin: bool = False,
    spec: QuadratureSpec | None = None,
):
    """P of the configuration given by pair lengths, merging zeros to the origin.

    Pairs with length <= 1e-6 put both their vectors at the origin, which
    counts as a single origin point regardless of how many pairs collapse;
    a negative or non-finite length is refused with ``ValueError``.
    ``lengths`` is one vector, which gives a float, or a (B, k) stack of
    them, which gives one P per row from one batched quadrature loop; each
    row's P is bit-identical to the row's own call.
    """
    given = np.asarray(lengths, dtype=float)
    bad = given[~(np.isfinite(given) & (given >= 0))]
    if bad.size:
        raise ValueError(f"pair lengths must be finite and nonnegative, got {bad[0]}")
    rows = np.atleast_2d(given)
    rows = np.where(rows > _ZERO_FLOOR, rows, 0.0)
    if not rows.any(axis=1).all():
        raise ValueError("at least one pair length must exceed the zero floor")
    p = _p_pairs(rows, include_origin, spec)
    return float(p[0]) if given.ndim == 1 else p


class _Evaluator:
    """Sends length stacks to :func:`objective` and counts the work."""

    def __init__(self, spec: QuadratureSpec | None) -> None:
        self.spec = spec
        self.evaluations = 0
        self.batches = 0

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        self.evaluations += len(stack)
        self.batches += 1
        return objective(stack, False, self.spec)


def _lockstep(searches, evaluate: _Evaluator) -> list:
    """Run independent searches side by side; returns their results in order.

    A search is a generator that yields a stack of candidate lengths, is
    sent their P values, and returns its result.  Each step sends the
    pending candidates of every unfinished search to ``evaluate`` as one
    stack, so searches share the cost of each quadrature round.
    """
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        values = evaluate(np.concatenate(list(pending.values())))
        at = 0
        for i, stack in list(pending.items()):
            mine, at = values[at : at + len(stack)], at + len(stack)
            try:
                pending[i] = searches[i].send(mine)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _project(t: np.ndarray) -> np.ndarray:
    """Map each row, a free (k-1)-vector, to a point of the share simplex in R^k."""
    s = np.concatenate([t, 1.0 - t.sum(axis=1, keepdims=True)], axis=1)
    np.maximum(s, 0.0, out=s)
    return s / s.sum(axis=1, keepdims=True)


def _lengths(shares: np.ndarray, total_energy: float) -> np.ndarray:
    return np.sqrt(shares * (0.5 * total_energy))


def _nelder_mead(t0: np.ndarray, max_iter: int, to_lengths):
    """Maximize P over R^d by Nelder-Mead on -P, as a search for :func:`_lockstep`.

    Yields ``to_lengths`` of each stack of points it needs: the initial
    simplex, one trial point, or the shrunk vertices.  Returns (t_best,
    -P_best, converged).
    """
    d = t0.size
    verts = [t0]
    for i in range(d):
        v = t0.copy()
        v[i] += -0.1 if v[i] > 0.5 else 0.1
        verts.append(v)
    verts = np.array(verts)
    vals = -(yield to_lengths(verts))
    converged = False
    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        verts, vals = verts[order], vals[order]
        if vals[-1] - vals[0] <= _LOCAL_TOL:
            converged = True
            break
        centroid = verts[:-1].sum(axis=0) / d  # the values of .mean(axis=0)
        reflected = centroid + (centroid - verts[-1])
        f_r = -(yield to_lengths(reflected[None]))[0]
        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            f_e = -(yield to_lengths(expanded[None]))[0]
            if f_e < f_r:
                verts[-1], vals[-1] = expanded, f_e
            else:
                verts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            verts[-1], vals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (verts[-1] - centroid)
            f_c = -(yield to_lengths(contracted[None]))[0]
            if f_c < vals[-1]:
                verts[-1], vals[-1] = contracted, f_c
            else:
                verts = verts[0] + 0.5 * (verts - verts[0])
                vals = np.concatenate([vals[:1], -(yield to_lengths(verts[1:]))])
    order = np.argsort(vals, kind="stable")
    return verts[order[0]], vals[order[0]], converged


def _refine_shares(shares0: np.ndarray, total_energy: float):
    """Nelder-Mead ascent of P from a share vector, as a search for
    :func:`_lockstep`; returns (shares, P, converged).

    P depends only on the multiset of lengths, so the start is sorted
    descending first; permuted starts then follow bit-identical paths.
    """
    k = shares0.size
    shares0 = np.sort(shares0)[::-1]
    shares0 = shares0 / shares0.sum()

    t_best, f_best, converged = yield from _nelder_mead(
        shares0[:-1].copy(), 100 * k, lambda ts: _lengths(_project(ts), total_energy)
    )
    return _project(t_best[None])[0], -f_best, converged


def _snap_sorted(shares: np.ndarray, total_energy: float) -> tuple[float, ...]:
    lengths = _lengths(shares, total_energy)
    lengths[lengths <= _ZERO_FLOOR] = 0.0
    return tuple(float(a) for a in np.sort(lengths)[::-1])


def _structured_starts(k: int) -> list[np.ndarray]:
    """All-equal plus j active pairs at equal shares for every j < k."""
    starts = []
    for j in range(k, 0, -1):
        s = np.zeros(k)
        s[:j] = 1.0 / j
        starts.append(s)
    return starts


_PROBE_SHARES = np.geomspace(1e-7, 3e-2, 13)


def _boundary_polish(
    shares: np.ndarray,
    p: float,
    total_energy: float,
    evaluate: _Evaluator,
):
    """Probe zeroed pairs with tiny shares; several optima keep one genuinely
    small pair (lengths down to ~1e-2), which a simplex search that has
    collapsed onto the boundary face cannot see on its own.  The probes of
    one pair are one batch.  Each improving probe is refined before the next
    pair is probed; P increases strictly, so the loop terminates."""
    floor_share = 2.0 * _ZERO_FLOOR**2 / total_energy
    improved = True
    while improved:
        improved = False
        for i in range(shares.size):
            if shares[i] > floor_share:
                continue
            probes = []
            for delta in _PROBE_SHARES:
                cand = shares.copy()
                cand[i] = 0.0
                cand = (1.0 - delta) * cand / cand.sum()
                cand[i] = delta
                probes.append(cand)
            values = evaluate(np.array([_lengths(c, total_energy) for c in probes]))
            best = int(np.argmax(values))
            if values[best] > p:
                search = _refine_shares(probes[best], total_energy)
                shares, p, _ = _lockstep([search], evaluate)[0]
                improved = True
    return shares, p


# Hops refined side by side, each kicked from the same incumbent.  After a
# strict improvement the later hops of the batch are run again from the new
# incumbent, with the same kicks, so results equal a hop-by-hop run; only
# the work counts show the discarded refinements.
_HOP_BATCH = 8


def _kicked(shares: np.ndarray, kick: np.ndarray) -> np.ndarray:
    cand = shares + kick
    np.maximum(cand, 0.0, out=cand)
    if cand.sum() == 0.0:
        cand = np.full(shares.size, 1.0 / shares.size)
    cand /= cand.sum()
    return cand


def basin_hop(
    k: int,
    energy: EnergyBudget,
    settings: OptimSettings | None = None,
    spec: QuadratureSpec | None = None,
    threads: int = 1,
) -> OptimResult:
    """Globally maximize P over k pair lengths at fixed total energy.

    Structured starts (hop indices 0..k-1) cover the discrete choice of
    how many pairs are active; the remaining ``settings.hops`` hops kick
    the incumbent's shares by a symmetric Gaussian perturbation of scale
    0.3, renormalize, refine, and accept only strict improvements.  Ties
    prefer the lexicographically smallest sorted lengths, so the result is
    independent of how starts are scheduled.

    Refinements that do not depend on each other run in lockstep, their
    candidates batched into one quadrature loop per step: the k starts,
    and hops in speculative batches from the incumbent (see ``_HOP_BATCH``).
    The result is bit-identical to refining one candidate at a time.  Runs
    in one thread; ``threads`` is accepted and ignored only because the
    benchmark still passes ``threads=1``.
    """
    settings = settings or OptimSettings()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    evaluate = _Evaluator(spec)

    def refine_all(starts):
        return _lockstep([_refine_shares(s, energy.total) for s in starts], evaluate)

    starts = _structured_starts(k)
    refined = refine_all(starts)

    best_shares = None
    best_p = -np.inf
    best_key = None
    best_conv = False
    improved_at: list[int] = []
    for hop_index, (shares, p, conv) in enumerate(refined):
        key = _snap_sorted(shares, energy.total)
        if p > best_p or (p == best_p and (best_key is None or key < best_key)):
            if p > best_p:
                improved_at.append(hop_index)
            best_shares, best_p, best_key, best_conv = shares, p, key, conv

    stream = RandomStream(settings.seed, 0)
    kicks: list[np.ndarray] = []
    hop = 0
    while hop < settings.hops:
        batch = range(hop, min(hop + _HOP_BATCH, settings.hops))
        while len(kicks) < batch.stop:
            kicks.append(_PERTURBATION_SCALE * stream.normal(k))
        try:
            results = refine_all([_kicked(best_shares, kicks[h]) for h in batch])
        except QuadratureError:
            # The failing hop may be one that a hop-by-hop run never reaches
            # from this incumbent: run the first hop alone, which raises
            # exactly when that run would.
            batch = batch[:1]
            results = refine_all([_kicked(best_shares, kicks[hop])])
        for h, (shares, p, conv) in zip(batch, results):
            hop = h + 1
            if p > best_p:
                best_shares, best_p, best_conv = shares, p, conv
                improved_at.append(len(starts) + h)
                break

    best_shares, best_p = _boundary_polish(best_shares, best_p, energy.total, evaluate)
    final = _snap_sorted(best_shares, energy.total)
    p_final = float(evaluate(np.array([final]))[0])
    achieved = 2.0 * float(np.sum(np.square(final)))
    if abs(achieved - energy.total) > 1e-9 * energy.total:
        raise RuntimeError(
            f"result violates the energy constraint: {achieved:g} vs {energy.total:g}"
        )
    return OptimResult(
        final,
        p_final,
        len(starts) + settings.hops,
        tuple(improved_at),
        best_conv,
        evaluate.evaluations,
        evaluate.batches,
    )


def threshold_scan(
    k: int,
    e_grid,
    settings: OptimSettings | None = None,
    spec: QuadratureSpec | None = None,
) -> float | None:
    """Smallest grid energy from which the optimum stays all-equal upward.

    A result counts as all-equal when every pair is active and the
    max/min length ratio is below 1.05.  Returns None when no such grid
    suffix exists.
    """
    energies = [float(e) for e in e_grid]
    if len(energies) < 2:
        raise ValueError("e_grid needs at least 2 points")
    if any(e <= 0 for e in energies) or any(
        b <= a for a, b in zip(energies, energies[1:])
    ):
        raise ValueError("e_grid must be strictly increasing and positive")

    def all_equal(result: OptimResult) -> bool:
        lo = min(result.lengths)
        return lo > 0 and max(result.lengths) / lo < 1.05

    threshold = None
    for e in energies:
        result = basin_hop(k, EnergyBudget(e), settings, spec)
        if all_equal(result):
            if threshold is None:
                threshold = e
        else:
            threshold = None
    return threshold
