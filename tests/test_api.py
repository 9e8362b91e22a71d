import re

import numpy as np
import pytest

import gausscode
from gausscode import EnergyBudget, OptimSettings, basin_hop, p_simplex, p_steiner
from gausscode.reporting import pair_length, simplex_radius


def test_all_is_sorted_and_resolves():
    assert gausscode.__all__ == sorted(gausscode.__all__)
    for name in gausscode.__all__:
        assert getattr(gausscode, name) is not None


@pytest.mark.parametrize("call, message", [
    (lambda: p_steiner(2.5, 1.0), "k must be an integer, got 2.5"),
    (lambda: p_simplex(3.5, 1.0), "m must be an integer, got 3.5"),
    (lambda: p_simplex(np.float64(3.0), 1.0), "m must be an integer, got np.float64(3.0)"),
    (lambda: OptimSettings(hops=1.5), "hops must be an integer, got 1.5"),
    (lambda: OptimSettings(seed="1"), "seed must be an integer, got '1'"),
    (lambda: basin_hop(2.5, EnergyBudget(1.0)), "k must be an integer, got 2.5"),
    (lambda: pair_length(1.0, 2.5), "k must be an integer, got 2.5"),
    (lambda: simplex_radius(1.0, 3.5), "m must be an integer, got 3.5"),
], ids=["p_steiner", "p_simplex", "p_simplex-float64", "hops", "seed", "basin_hop",
        "pair_length", "simplex_radius"])
def test_non_integer_counts_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_numpy_integer_counts_pass(integer):
    assert p_steiner(integer(3), 1.0) == p_steiner(3, 1.0)
    assert p_simplex(integer(4), 1.0) == p_simplex(4, 1.0)
    settings = OptimSettings(hops=integer(1), seed=integer(2))
    want = basin_hop(2, EnergyBudget(3.0), OptimSettings(hops=1, seed=2))
    assert basin_hop(integer(2), EnergyBudget(3.0), settings) == want
