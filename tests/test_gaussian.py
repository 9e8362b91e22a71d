import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscode.analytic import p_antipodal, p_simplex, p_steiner, p_with_origin
from gausscode.configs import AntipodalLengths, Configuration
from gausscode.estimators import p_direct
from gausscode.gaussian import (
    QuadratureError,
    QuadratureSpec,
    RandomStream,
    integrate_adaptive,
    integrate_gauss_tail,
    integrate_many,
    normal_cdf,
    normal_pdf,
)


def cdf_oracle(x: float) -> float:
    """Independent CDF oracle: 200-node Gauss-Legendre quadrature of the density."""
    lo = -38.5  # density underflows below; truncation error ~ 1e-324
    nodes, weights = np.polynomial.legendre.leggauss(200)
    t = 0.5 * (x - lo) * nodes + 0.5 * (x + lo)
    return float(0.5 * (x - lo) * np.sum(weights * np.exp(-0.5 * t * t)) / math.sqrt(2 * math.pi))


def tail_oracle(x: float) -> float:
    """1 - Phi(x) for large x by quadrature of the density over [-30, -x]."""
    nodes, weights = np.polynomial.legendre.leggauss(300)
    lo, hi = -30.0, -x
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    return float(0.5 * (hi - lo) * np.sum(weights * np.exp(-0.5 * t * t)) / math.sqrt(2 * math.pi))


class TestNormalCdf:
    def test_half_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_frozen_value_at_one(self):
        # 10-digit value frozen from the quadrature oracle
        assert normal_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-10)
        assert cdf_oracle(1.0) == pytest.approx(0.8413447461, abs=1e-10)

    @pytest.mark.parametrize("x", [-7.5, -4.0, -1.0, -0.25, 0.5, 2.0, 3.5, 6.0, 8.0])
    def test_matches_oracle(self, x):
        assert normal_cdf(x) == pytest.approx(cdf_oracle(x), abs=1e-13)

    @pytest.mark.parametrize("x", [9.0, 12.0, 18.0])
    def test_tail_relative_accuracy(self, x):
        want = tail_oracle(x)
        assert want > 0
        assert abs(normal_cdf(-x) - want) <= 1e-10 * want

    @pytest.mark.parametrize("x", [0.3, 2.0, 7.0])
    def test_symmetry(self, x):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-13)

    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=50)
    def test_reflection_identity(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-13)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=20))
    @settings(max_examples=50)
    def test_monotone(self, xs):
        values = normal_cdf(np.sort(np.asarray(xs)))
        assert np.all(np.diff(values) >= 0)

    def test_vectorized(self):
        out = normal_cdf(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5


class TestNormalPdf:
    def test_frozen_peak(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    @pytest.mark.parametrize("x", [1.0, 3.5])
    def test_even(self, x):
        assert normal_pdf(x) == normal_pdf(-x)

    def test_far_tail(self):
        assert normal_pdf(10.0) <= 1e-21


class TestIntegrateGaussTail:
    def test_half_mass(self):
        got = integrate_gauss_tail(lambda t: np.ones_like(t), 1.3, 1.3)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_full_mass(self):
        got = integrate_gauss_tail(lambda t: np.ones_like(t), -20.0, 0.0)
        assert got == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_power_substitution(self, k):
        # u = 2 Phi(t) - 1 turns the integrand into u^(k-1)/2 on [0, 1]
        got = integrate_gauss_tail(lambda t: (2 * normal_cdf(t) - 1) ** (k - 1), 0.0, 0.0)
        assert got == pytest.approx(1.0 / (2 * k), abs=1e-10)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_tolerance_halving(self, tol):
        f = lambda t: np.cos(t) ** 2
        a = integrate_gauss_tail(f, -1.0, 0.5, QuadratureSpec(abs_tol=tol))
        b = integrate_gauss_tail(f, -1.0, 0.5, QuadratureSpec(abs_tol=tol / 2))
        assert abs(a - b) <= 2 * tol

    def test_truncation_soundness(self):
        f = lambda t: (2 * normal_cdf(t) - 1) ** 4
        near = integrate_gauss_tail(f, 0.3, 1.1)
        far = integrate_adaptive(
            lambda t: normal_pdf(t - 1.1) * f(t), 0.3, 1.1 + 12.0, 1e-10
        )
        assert abs(near - far) < 1e-12

    def test_empty_range(self):
        assert integrate_gauss_tail(lambda t: np.ones_like(t), 9.0, 0.0) == 0.0

    def test_budget_exhaustion(self):
        f = lambda t: np.where(np.abs(t - 0.37) < 1e-9, 1.0, np.sign(t - 0.37))
        with pytest.raises(QuadratureError):
            integrate_gauss_tail(f, -3.0, 0.0, QuadratureSpec(1e-14))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)

    def test_spec_rejects_infinite_tolerance(self):
        with pytest.raises(ValueError, match="abs_tol must be finite and positive, got inf"):
            QuadratureSpec(abs_tol=float("inf"))


class TestIntegrateMany:
    LO = [-1.0, 0.0, 0.3]
    HI = [1.0, 2.0, 5.5]

    def test_matches_one_at_a_time(self):
        f = lambda t: np.cos(3.0 * t) * normal_pdf(t)
        got = integrate_many(lambda t, owner: f(t), self.LO, self.HI, 1e-12)
        want = sum(integrate_adaptive(f, lo, hi, 1e-12) for lo, hi in zip(self.LO, self.HI))
        assert got == pytest.approx(want, abs=1e-14)

    def test_owner_selects_the_integrand(self):
        scale = np.array([1.0, 2.0, 3.0])
        got = integrate_many(lambda t, owner: scale[owner][:, None] * t**2,
                             self.LO, self.HI, 1e-10)
        want = sum(s * (hi**3 - lo**3) / 3.0 for s, lo, hi in zip(scale, self.LO, self.HI))
        assert got == pytest.approx(want, abs=1e-10)

    def test_split_budget_is_shared(self):
        # one step integral needs 51 splits at this tolerance; two need 102
        step = lambda t: np.sign(t - 0.3)
        integrate_adaptive(step, -1.0, 1.0, 1e-12, max_subdivisions=60)
        integrate_adaptive(step, 0.0, 2.0, 1e-12, max_subdivisions=60)
        with pytest.raises(QuadratureError):
            integrate_many(lambda t, owner: step(t), [-1.0, 0.0], [1.0, 2.0],
                           1e-12, max_subdivisions=60)

    def test_adaptive_empty_range(self):
        assert integrate_adaptive(np.ones_like, 2.0, 2.0, 1e-10) == 0.0

    def test_no_integrals(self):
        f = lambda t, owner: np.ones_like(t)
        assert integrate_many(f, [], [], 1e-10, group=np.arange(0)).shape == (0,)
        assert integrate_many(f, [], [], 1e-10).tolist() == [0.0]

    def test_groups_are_bit_identical_to_own_calls(self):
        f = lambda t: np.cos(3.0 * t) * normal_pdf(t)
        lo, hi = [-1.0, 0.0, 0.3, -2.0, 0.5], [1.0, 2.0, 5.5, 0.0, 0.7]
        group = np.array([2, 0, 2, 1, 0])
        tol = np.array([1e-12, 1e-9, 1e-12, 1e-11, 1e-9])
        got = integrate_many(lambda t, owner: f(t), lo, hi, tol, group=group)
        for g in range(3):
            mine = group == g
            want = integrate_many(lambda t, owner: f(t), np.array(lo)[mine],
                                  np.array(hi)[mine], tol[mine])
            assert repr(got[g]) == repr(want[0])

    def test_each_group_has_its_own_budget(self):
        # 50 step integrals need 51 splits each: 2,550 together, which is
        # over the default budget of 2,000, but each group is far under it.
        step = lambda t, owner: np.sign(t - 0.3)
        lo, hi = np.full(50, -1.0), np.full(50, 1.0)
        one = integrate_many(step, lo[:1], hi[:1], 1e-12)
        got = integrate_many(step, lo, hi, 1e-12, group=np.arange(50))
        assert [repr(x) for x in got] == [repr(one[0])] * 50
        with pytest.raises(QuadratureError, match="on 1 interval"):
            integrate_many(step, lo, hi, 1e-12, max_subdivisions=50,
                           group=np.arange(50))


class TestFrozenValues:
    """Exact values of the closed forms, frozen before the quadrature loops merged."""

    LENGTHS = (0.8, 1.3, 0.4)

    def test_steiner(self):
        assert repr(p_steiner(3, 1.0).value) == "2.7818960329854954"
        assert repr(p_steiner(10, 2.5).value) == "14.525934735633346"

    def test_simplex(self):
        assert repr(p_simplex(7, 1.3).value) == "3.8452581066943994"
        assert repr(p_simplex(2, 0.5).value) == "1.382924922548022"

    def test_with_origin(self):
        assert repr(p_with_origin(AntipodalLengths(self.LENGTHS, True)).value) == (
            "2.515984424805309"
        )
        lengths = AntipodalLengths((1.34124,) * 5 + (0.0709,), True)
        assert repr(p_with_origin(lengths).value) == "4.62456073407203"

    def test_antipodal(self):
        assert repr(p_antipodal(AntipodalLengths(self.LENGTHS)).value) == (
            "2.515147654697159"
        )
        assert repr(p_antipodal(AntipodalLengths((1.0, 1e-3))).value) == (
            "1.7661557269939898"
        )

    def test_direct_2d(self):
        config = Configuration(2, [[0.9, 0.0], [-0.4, 0.8], [0.2, -0.9]])
        assert repr(p_direct(config, QuadratureSpec(1e-4)).value) == "1.928428980672239"

    def test_direct_batched_levels(self):
        # Frozen while each inner integral still ran on its own.
        config = Configuration(2, [[0.9, 0.0], [-0.4, 0.8], [0.2, -0.9]])
        assert repr(p_direct(config, QuadratureSpec(1e-6)).value) == "1.928426603399175"
        config = Configuration(1, [[1.0], [-1.0], [0.3]])
        assert repr(p_direct(config).value) == "1.7579690807409958"
        config = Configuration(3, [[0.5, 0.0, 0.0], [-0.5, 0.2, 0.0], [0.0, 0.0, 0.7]])
        assert repr(p_direct(config, QuadratureSpec(1e-3)).value) == "1.5861256271131365"


class TestRandomStream:
    def test_deterministic_replay(self):
        a = RandomStream(42, 3).normal(1000)
        b = RandomStream(42, 3).normal(1000)
        assert np.array_equal(a, b)

    def test_moments(self):
        draws = RandomStream(7, 0).normal(1_000_000)
        assert abs(draws.mean()) <= 0.004  # 3 sigma of the mean estimator
        assert abs(draws.var() - 1.0) <= 0.005

    def test_distinct_streams_two_sample(self):
        n = 100_000
        a = RandomStream(5, 0).normal(n)
        b = RandomStream(5, 1).normal(n)
        assert not np.array_equal(a[:100], b[:100])
        assert abs(a.mean() - b.mean()) <= 3.0 * math.sqrt(2.0 / n)

    def test_scalar_draws_advance(self):
        stream = RandomStream(9, 0)
        x, y = stream.normal(), stream.normal()
        assert x != y
        assert x == RandomStream(9, 0).normal()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
