"""Seeded inputs of the three workloads.

Uses NumPy only, so the worker that times the package and the parent that
checks its outputs build the same inputs from the same seed.
"""

from __future__ import annotations

import numpy as np

from published import OPT_TABLE_K3, OPT_TABLE_K4, OPT_TABLE_K5, OPT_TABLE_K6, STEINER_TABLE

WORKLOADS = ("optimize_rows", "closed_forms", "mc_decode")

# optimize_rows: published (k, E) rows, two or three per k.  They include
# rows whose optimum keeps one tiny pair (k3-E1, k4-E2), the two clean rows
# the optimizer beats (k4-E2, k6-E10) and the k=6 threshold row (E=18).
OPT_TABLES = {3: OPT_TABLE_K3, 4: OPT_TABLE_K4, 5: OPT_TABLE_K5, 6: OPT_TABLE_K6}
OPT_ROWS = ((3, 1.0), (3, 20.0), (4, 2.0), (4, 5.0), (5, 4.0), (5, 12.0),
            (6, 4.0), (6, 10.0), (6, 18.0))
OPT_HOPS = 1
# The optimizer's own seed is fixed: with it, every --seed does the same
# search work, and --seed only orders the rows.
OPT_SEED = 0

# closed_forms
RANDOM_K = tuple(range(2, 13))
RANDOM_PER_K = 4  # vectors per k for each of p_with_origin and p_antipodal
LENGTH_RANGE = (0.05, 3.0)  # log-uniform
EQUAL_RANGE = (0.2, 2.5)
SIMPLEX_M = tuple(range(2, 51))
RADIUS_RANGE = (0.2, 3.0)
LARGE_K = 3
LARGE_LENGTHS = (3e4, 1e5, 1e6)
LARGE_KINDS = ("p_steiner", "p_with_origin", "p_antipodal")
TABLE_K = tuple(range(1, 21))
TABLE_ENERGIES = tuple(row[0] for row in STEINER_TABLE)
TABLE_TOL = 1e-10

# mc_decode
MC_PAIRS = 6
MC_SIMPLEX_M = 7
MC_SAMPLES = 1 << 19


def published_lengths(k: int, energy: float):
    return dict(OPT_TABLES[k])[energy]


def optimize_rows(seed: int) -> list[tuple[int, float]]:
    order = np.random.default_rng([seed, 0]).permutation(len(OPT_ROWS))
    return [OPT_ROWS[i] for i in order]


def round_scale(round_index: int) -> float:
    """Factor applied to the closed_forms lengths in round ``round_index``.

    Each round moves every length by 64 units in the last place, so no two
    rounds evaluate P at bit-identical inputs and a cache keyed on exact
    inputs gains nothing; over 10^4 rounds P moves by less than 1e-9.
    """
    return 1.0 + round_index * 2.0**-46


def closed_form_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    lo, hi = np.log(LENGTH_RANGE[0]), np.log(LENGTH_RANGE[1])
    random_evals = [
        (k, with_origin, tuple(float(x) for x in np.exp(rng.uniform(lo, hi, k))))
        for k in RANDOM_K
        for with_origin in (True, False)
        for _ in range(RANDOM_PER_K)
    ]
    equal = [(k, float(rng.uniform(*EQUAL_RANGE))) for k in RANDOM_K]
    simplex = [(m, float(rng.uniform(*RADIUS_RANGE))) for m in SIMPLEX_M]
    large = [(kind, LARGE_K, a) for a in LARGE_LENGTHS for kind in LARGE_KINDS]
    return {"random": random_evals, "equal": equal, "simplex": simplex, "large": large}


def mc_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    pairs = tuple(float(x) for x in rng.uniform(0.6, 1.6, MC_PAIRS))
    radius = float(rng.uniform(1.0, 2.0))
    return {"pairs": pairs, "radius": radius, "samples": MC_SAMPLES, "mc_seed": seed}
