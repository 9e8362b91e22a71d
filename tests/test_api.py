import re

import numpy as np
import pytest

import gausscode
from gausscode import (
    AntipodalLengths,
    Configuration,
    ConfigurationError,
    EnergyBudget,
    OptimSettings,
    RandomStream,
    basin_hop,
    embed_antipodal,
    mc_decode,
    p_simplex,
    p_steiner,
    regular_simplex,
)
from gausscode.reporting import pair_length, simplex_radius

PAIR = embed_antipodal(AntipodalLengths((1.0,)))


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
    (lambda: mc_decode(PAIR, 2.5, 0), "samples must be an integer, got 2.5"),
    (lambda: mc_decode(PAIR, 10, 1.5), "seed must be an integer, got 1.5"),
    (lambda: mc_decode(PAIR, 10, 0, threads=1.5), "threads must be an integer, got 1.5"),
    (lambda: mc_decode(PAIR, 10, 0, threads=0), "threads must be >= 1, got 0"),
    (lambda: RandomStream(1.5), "seed must be an integer, got 1.5"),
    (lambda: RandomStream(1, 0.5), "stream_index must be an integer, got 0.5"),
    (lambda: RandomStream(-1), "seed must be >= 0, got -1"),
    (lambda: p_steiner(True, 1.0), "k must be an integer, got True"),
    (lambda: mc_decode(PAIR, True, 0), "samples must be an integer, got True"),
    (lambda: OptimSettings(hops=True), "hops must be an integer, got True"),
], ids=["p_steiner", "p_simplex", "p_simplex-float64", "hops", "seed", "basin_hop",
        "pair_length", "simplex_radius", "mc_decode-samples", "mc_decode-seed",
        "mc_decode-threads", "mc_decode-threads-0", "RandomStream-seed",
        "RandomStream-stream_index", "RandomStream-negative", "p_steiner-bool",
        "mc_decode-samples-bool", "hops-bool"])
def test_non_integer_counts_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: regular_simplex(2.5, 1.0), "m must be an integer, got 2.5"),
    (lambda: regular_simplex(1, 1.0), "m must be >= 2, got 1"),
    (lambda: Configuration(2.0, [[1.0, 0.0]]), "dimension must be an integer, got 2.0"),
    (lambda: Configuration(0, [[1.0, 0.0]]), "dimension must be >= 1, got 0"),
    (lambda: Configuration(True, [[1.0]]), "dimension must be an integer, got True"),
], ids=["regular_simplex", "regular_simplex-1", "Configuration", "Configuration-0",
        "Configuration-bool"])
def test_configuration_counts_refused(call, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_numpy_integer_counts_pass(integer):
    assert p_steiner(integer(3), 1.0) == p_steiner(3, 1.0)
    assert p_simplex(integer(4), 1.0) == p_simplex(4, 1.0)
    settings = OptimSettings(hops=integer(1), seed=integer(2))
    want = basin_hop(2, EnergyBudget(3.0), OptimSettings(hops=1, seed=2))
    assert basin_hop(integer(2), EnergyBudget(3.0), settings) == want
    assert mc_decode(PAIR, integer(100), integer(3), threads=integer(2)) == mc_decode(
        PAIR, 100, 3
    )
    assert np.array_equal(RandomStream(integer(5), integer(1)).normal(4),
                          RandomStream(5, 1).normal(4))
    assert np.array_equal(regular_simplex(integer(3), 1.0).points,
                          regular_simplex(3, 1.0).points)
    config = Configuration(integer(2), [[1.0, 0.0]])
    assert type(config.dimension) is int and config.dimension == 2
