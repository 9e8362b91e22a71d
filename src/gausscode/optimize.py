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

from .analytic import p_antipodal, p_with_origin
from .configs import AntipodalLengths, EnergyBudget
from .gaussian import QuadratureSpec, RandomStream


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


@dataclass(frozen=True)
class OptimResult:
    """Optimized pair lengths (sorted descending, zeros snapped) and diagnostics."""

    lengths: tuple[float, ...]
    p_value: float
    hops_taken: int
    improved_at: tuple[int, ...]
    converged: bool


def objective(
    lengths,
    include_origin: bool = False,
    spec: QuadratureSpec | None = None,
) -> float:
    """P of the configuration given by pair lengths, merging zeros to the origin.

    Pairs with length <= 1e-6 put both their vectors at the origin, which
    counts as a single origin point regardless of how many pairs collapse.
    """
    active = [float(a) for a in lengths if a > _ZERO_FLOOR]
    if not active:
        raise ValueError("at least one pair length must exceed the zero floor")
    merged = include_origin or len(active) < len(lengths)
    if merged:
        return p_with_origin(AntipodalLengths(tuple(active), True), spec).value
    return p_antipodal(AntipodalLengths(tuple(active), False), spec).value


def _project(t: np.ndarray) -> np.ndarray:
    """Map a free (k-1)-vector to a point of the share simplex in R^k."""
    s = np.concatenate([t, [1.0 - t.sum()]])
    np.clip(s, 0.0, None, out=s)
    return s / s.sum()


def _lengths(shares: np.ndarray, total_energy: float) -> np.ndarray:
    return np.sqrt(shares * (0.5 * total_energy))


def _nelder_mead(f, t0: np.ndarray, max_iter: int):
    """Minimize f over R^d by Nelder-Mead; returns (t_best, f_best, converged)."""
    d = t0.size
    verts = [t0]
    for i in range(d):
        v = t0.copy()
        v[i] += -0.1 if v[i] > 0.5 else 0.1
        verts.append(v)
    verts = np.array(verts)
    vals = np.array([f(v) for v in verts])
    converged = False
    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        verts, vals = verts[order], vals[order]
        if vals[-1] - vals[0] <= _LOCAL_TOL:
            converged = True
            break
        centroid = verts[:-1].mean(axis=0)
        reflected = centroid + (centroid - verts[-1])
        f_r = f(reflected)
        if f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            f_e = f(expanded)
            if f_e < f_r:
                verts[-1], vals[-1] = expanded, f_e
            else:
                verts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            verts[-1], vals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (verts[-1] - centroid)
            f_c = f(contracted)
            if f_c < vals[-1]:
                verts[-1], vals[-1] = contracted, f_c
            else:
                verts = verts[0] + 0.5 * (verts - verts[0])
                vals = np.array([vals[0]] + [f(v) for v in verts[1:]])
    order = np.argsort(vals, kind="stable")
    return verts[order[0]], vals[order[0]], converged


def _refine_shares(
    shares0: np.ndarray, total_energy: float, spec: QuadratureSpec | None
):
    """Nelder-Mead ascent of P from a share vector; returns (shares, P, converged).

    P depends only on the multiset of lengths, so the start is sorted
    descending first; permuted starts then follow bit-identical paths.
    """
    k = shares0.size
    if k == 1:
        only = objective([np.sqrt(total_energy / 2.0)], False, spec)
        return np.array([1.0]), only, True
    shares0 = np.sort(shares0)[::-1]
    shares0 = shares0 / shares0.sum()

    def neg_p(t: np.ndarray) -> float:
        s = _project(t)
        return -objective(_lengths(s, total_energy), False, spec)

    t_best, f_best, converged = _nelder_mead(
        neg_p, shares0[:-1].copy(), max_iter=100 * k
    )
    return _project(t_best), -f_best, converged


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
    spec: QuadratureSpec | None,
):
    """Probe zeroed pairs with tiny shares; several optima keep one genuinely
    small pair (lengths down to ~1e-2), which a simplex search that has
    collapsed onto the boundary face cannot see on its own.  Each improving
    probe is refined before the next round; P increases strictly, so the
    loop terminates."""
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
                probes.append(
                    (objective(_lengths(cand, total_energy), False, spec), cand)
                )
            best_probe = max(probes, key=lambda item: item[0])
            if best_probe[0] > p:
                shares, p, _ = _refine_shares(best_probe[1], total_energy, spec)
                improved = True
    return shares, p


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
    independent of how starts are scheduled.  Runs serially: a refinement
    is too short for a thread pool to pay.  ``threads`` is accepted and
    ignored only because the benchmark still passes ``threads=1``.
    """
    settings = settings or OptimSettings()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def refine_from(shares):
        return _refine_shares(shares, energy.total, spec)

    starts = _structured_starts(k)
    refined = [refine_from(s) for s in starts]

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
    for hop in range(settings.hops):
        kick = _PERTURBATION_SCALE * stream.normal(k)
        cand = best_shares + kick
        np.clip(cand, 0.0, None, out=cand)
        if cand.sum() == 0.0:
            cand = np.full(k, 1.0 / k)
        cand /= cand.sum()
        shares, p, conv = refine_from(cand)
        if p > best_p:
            best_shares, best_p, best_conv = shares, p, conv
            best_key = _snap_sorted(shares, energy.total)
            improved_at.append(len(starts) + hop)

    best_shares, best_p = _boundary_polish(best_shares, best_p, energy.total, spec)
    final = _snap_sorted(best_shares, energy.total)
    p_final = objective(final, False, spec)
    achieved = 2.0 * float(np.sum(np.square(final)))
    if abs(achieved - energy.total) > 1e-9 * energy.total:
        raise RuntimeError(
            f"result violates the energy constraint: {achieved:g} vs {energy.total:g}"
        )
    return OptimResult(
        final, p_final, len(starts) + settings.hops, tuple(improved_at), best_conv
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
