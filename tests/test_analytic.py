import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gausscode import analytic
from gausscode.analytic import (
    _p_pairs,
    _p_steiner_column,
    p_antipodal,
    p_simplex,
    p_steiner,
    p_with_origin,
)
from gausscode.configs import AntipodalLengths, Configuration
from gausscode.estimators import p_direct
from gausscode.gaussian import QuadratureSpec, RandomStream, integrate_gauss_tail, normal_cdf
from gausscode.reporting import (
    STEINER_ENERGY_GRID,
    STEINER_K_GRID,
    pair_length,
    steiner_grid,
)


def anti(*lengths, origin=False):
    return AntipodalLengths(tuple(lengths), origin)


class TestSteiner:
    @pytest.mark.parametrize("energy,k,want", [
        (0.1, 1, 1.178),
        (20.0, 2, 3.857),
        (1000.0, 1, 3.000),
        (1000.0, 10, 20.992),
    ])
    def test_published_anchors(self, energy, k, want):
        got = p_steiner(k, pair_length(energy, k)).value
        assert got == pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_all_points_at_origin(self, k):
        assert p_steiner(k, 0.0).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_single_pair_closed_form(self, a):
        assert p_steiner(1, a).value == pytest.approx(4 * normal_cdf(a / 2) - 1, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_monotone_in_length(self, k):
        grid = np.arange(0.0, 6.25, 0.25)
        values = [p_steiner(k, a).value for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            p_steiner(0, 1.0)
        with pytest.raises(ValueError):
            p_steiner(2, -0.5)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_rejects_non_finite_and_negative_lengths(self, a):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            p_steiner(3, a)

    def test_rejects_non_number_length(self):
        with pytest.raises(TypeError):
            p_steiner(3, None)

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_range(self, k, a):
        value = p_steiner(k, a).value
        n_distinct = 2 * k + 1 if a > 0 else 1
        assert 0 < value <= n_distinct + 1e-9


def steiner_reference(k: int, a: float) -> str:
    """repr of P for k equal pairs plus the origin, one length at a time: one
    tail integral plus the origin cube as a scalar power."""
    tail = integrate_gauss_tail(lambda b: (2.0 * ndtr(b) - 1.0) ** (k - 1),
                                0.5 * a, a, QuadratureSpec(1e-10 / (4.0 * k)))
    return repr(float(2.0 * k * tail + (2.0 * ndtr(0.5 * a) - 1.0) ** k))


class TestSteinerColumn:
    """One quadrature loop per k column gives each length's own value, bit for bit."""

    def test_default_grid_equals_each_cell(self):
        grid = steiner_grid(STEINER_K_GRID, STEINER_ENERGY_GRID)
        for i, e in enumerate(STEINER_ENERGY_GRID):
            for j, k in enumerate(STEINER_K_GRID):
                a = pair_length(e, k)
                want = steiner_reference(k, a)
                assert repr(float(grid[i, j])) == repr(p_steiner(k, a).value) == want
        # An array power for the origin cube rounds this cell 2e-15 lower.
        cell = grid[STEINER_ENERGY_GRID.index(90.0), STEINER_K_GRID.index(5)]
        assert repr(float(cell)) == "9.362777644164213"

    @given(st.integers(min_value=1, max_value=20),
           st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=5))
    @example(5, [3.0])  # E = 90, k = 5
    @settings(max_examples=40, deadline=None)
    def test_column_equals_each_length(self, k, lengths):
        lengths = [*lengths, 0.0]
        column = _p_steiner_column(k, np.array(lengths), QuadratureSpec())
        for value, a in zip(column, lengths):
            assert repr(float(value)) == repr(p_steiner(k, a).value) == steiner_reference(k, a)

    def test_empty_grid(self):
        assert steiner_grid([1, 2], []).shape == (0, 2)
        assert steiner_grid([], [1.0]).shape == (1, 0)


class TestAntipodal:
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_single_pair_closed_form(self, a):
        assert p_antipodal(anti(a)).value == pytest.approx(2 * normal_cdf(a), abs=1e-9)

    @pytest.mark.parametrize("k,r", [(2, 0.8), (3, 1.0), (5, 1.7)])
    def test_equal_lengths_reduction(self, k, r):
        want = 2 * k * integrate_gauss_tail(
            lambda t: (2 * normal_cdf(t) - 1) ** (k - 1), 0.0, r
        )
        assert p_antipodal(anti(*[r] * k)).value == pytest.approx(want, abs=1e-9)

    def test_requires_no_origin_flag(self):
        with pytest.raises(ValueError):
            p_antipodal(anti(1.0, origin=True))

    def test_merge_continuity(self):
        # a vanishing pair behaves like a point at the origin
        with_tiny = p_antipodal(anti(1.0, 1e-4)).value
        merged = p_with_origin(anti(1.0, origin=True)).value
        assert with_tiny == pytest.approx(merged, abs=1e-3)

    @given(st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_range(self, lengths):
        value = p_antipodal(anti(*lengths)).value
        assert 0 < value <= 2 * len(lengths) + 1e-9


class TestWithOrigin:
    @pytest.mark.parametrize("k,a", [(1, 0.7), (3, 1.0), (6, 1.3)])
    def test_equal_lengths_match_steiner(self, k, a):
        got = p_with_origin(anti(*[a] * k, origin=True)).value
        assert got == pytest.approx(p_steiner(k, a).value, abs=1e-10)

    @pytest.mark.parametrize("a", [0.4, 1.0, 2.5])
    def test_single_pair_closed_form(self, a):
        got = p_with_origin(anti(a, origin=True)).value
        assert got == pytest.approx(4 * normal_cdf(a / 2) - 1, abs=1e-9)

    def test_requires_origin_flag(self):
        with pytest.raises(ValueError):
            p_with_origin(anti(1.0))


class TestExtremePairLengths:
    """Lengths whose cell slopes or squares overflow float64 are refused
    before any integral; those just inside are evaluated without a warning."""

    @pytest.mark.parametrize("fn,origin", [(p_with_origin, True), (p_antipodal, False)])
    @pytest.mark.parametrize("tiny", [1e-320, 4e-309, 1e-308, 5.2e-308])
    def test_tiny_beside_unit_refused(self, fn, origin, tiny):
        with pytest.raises(ValueError, match=f"pair length {tiny} is too small beside 1.0"):
            fn(anti(tiny, 1.0, origin=origin))

    @pytest.mark.parametrize("fn,origin", [(p_with_origin, True), (p_antipodal, False)])
    def test_square_overflow_refused(self, fn, origin):
        with pytest.raises(ValueError, match="pair length 1e[+]160 is too large"):
            fn(anti(1e160, 1.0, origin=origin))

    @pytest.mark.parametrize("length,shown", [(3e154, "3e[+]154"), (1e300, "1e[+]300")])
    def test_steiner_square_overflow_refused(self, length, shown):
        with pytest.raises(ValueError, match=f"pair length {shown} is too large: its square"):
            p_steiner(3, length)

    @pytest.mark.parametrize("fn,origin", [(p_with_origin, True), (p_antipodal, False)])
    @pytest.mark.parametrize("tiny", [1e-200, 5.3e-308])
    def test_tiny_beside_unit_kept(self, fn, origin, tiny):
        # The tiny pair's cell has measure 0 and its box factor is 1: the
        # value of one pair plus the origin.
        assert repr(fn(anti(tiny, 1.0, origin=origin)).value) == "1.7658498450960474"

    def test_tiny_length_in_padded_stack(self):
        # The short row is padded with far pairs, whose slopes over the tiny
        # length would overflow; only the row's own cells are set up.
        stack = _p_pairs(np.array([[1e-200, 1.0, 0.0], [1.0, 1.0, 1.0]]), False)
        assert repr(float(stack[0])) == repr(p_with_origin(anti(1e-200, 1.0, origin=True)).value)
        assert repr(float(stack[1])) == repr(p_antipodal(anti(1.0, 1.0, 1.0)).value)


class TestNarrowLayers:
    """A pair far shorter than pair j opens cell j's box within a layer
    about their length ratio deep, finer than the cell's first panels."""

    @pytest.mark.parametrize("fn,origin", [(p_with_origin, True), (p_antipodal, False)])
    @pytest.mark.parametrize("tiny", [1e-8, 1e-6, 1e-4, 6e-4])
    def test_tiny_beside_unit_matches_direct(self, fn, origin, tiny):
        points = [[1.0, 0.0], [-1.0, 0.0], [0.0, tiny], [0.0, -tiny]] + [[0.0, 0.0]] * origin
        direct = p_direct(Configuration(2, points), QuadratureSpec(1e-9)).value
        assert fn(anti(1.0, tiny, origin=origin)).value == pytest.approx(direct, abs=1e-9)

    # 30 digits from mpmath 1.3.0, each cell broken inside its layers:
    #
    #   from mpmath import mp, mpf, quad, ncdf, npdf
    #   mp.dps = 30
    #   def p(lengths, origin):
    #       a = [mpf(x) for x in lengths]
    #       total = mp.fprod(2 * ncdf(x / 2) - 1 for x in a) if origin else mpf(0)
    #       for j, aj in enumerate(a):
    #           others = a[:j] + a[j + 1:]
    #           lo = aj / 2 if origin else (aj**2 - min(a) ** 2) / (2 * aj)
    #           f = lambda t: npdf(t - aj) * mp.fprod(
    #               2 * ncdf((ai**2 + 2 * aj * t - aj**2) / (2 * ai)) - 1 for ai in others)
    #           cuts = {lo + m * ai / aj for ai in others for m in (0.3, 1, 3, 10, 30)}
    #           total += 2 * quad(f, sorted(c for c in cuts | {lo, aj + 3} if c < aj + 3)
    #                                + [mp.inf])
    #       return total
    #
    # (1.0, 3e-4, 1e-5) has two narrow layers in the unit pair's cell: cut
    # at the finer one only, that cell still overstates P by 1.2e-4.
    @pytest.mark.parametrize("lengths,origin,want", [
        ((2.0, 0.1, 4e-5), False, "2.42103625361907327988262446871"),
        ((1.0, 0.3, 1e-4), True, "1.88800072909522705773047759518"),
        ((1.0, 3e-4, 1e-5), False, "1.76594158702085744849237330103"),
        ((1.0, 3e-4, 1e-5), True, "1.76594158702085744849694243768"),
    ])
    def test_three_pairs_match_mpmath(self, lengths, origin, want):
        fn = p_with_origin if origin else p_antipodal
        assert fn(anti(*lengths, origin=origin)).value == pytest.approx(float(want), abs=1e-10)

    # Each input runs two integrate_many loops, the cells and then the check:
    # no node of the refined panels reaches the layer that the check cuts.
    @pytest.mark.parametrize("lengths,origin", [
        *[((1.0, tiny), origin) for tiny in (1e-8, 1e-6, 1e-4, 6e-4) for origin in (True, False)],
        ((2.0, 0.1, 4e-5), False), ((1.0, 0.3, 1e-4), True),
        ((1.0, 3e-4, 1e-5), False), ((1.0, 3e-4, 1e-5), True),
    ])
    def test_checked_in_a_second_loop(self, monkeypatch, lengths, origin):
        loops = []
        integrate_many = analytic.integrate_many

        def counting(*args, **kwargs):
            loops.append(True)
            return integrate_many(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate_many", counting)
        fn = p_with_origin if origin else p_antipodal
        fn(anti(*lengths, origin=origin))
        assert len(loops) == 2

    def test_rows_in_a_stack_as_alone(self):
        rows = np.array([[1.0, 1e-4, 0.0], [1.0, 0.5, 0.3], [2.0, 0.1, 4e-5], [1e-5, 1.0, 3e-4]])
        stack = _p_pairs(rows, False)
        alone = [_p_pairs(row[None], False)[0] for row in rows]
        assert [repr(v) for v in stack] == [repr(v) for v in alone]


class TestSimplex:
    @pytest.mark.parametrize("r", [0.5, 1.2, 2.0])
    def test_pair_equivalence(self, r):
        # a 1-simplex is an antipodal pair
        assert p_simplex(2, r).value == pytest.approx(p_antipodal(anti(r)).value, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_coincident_vertices(self, m):
        assert p_simplex(m, 0.0).value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            p_simplex(1, 1.0)
        with pytest.raises(ValueError):
            p_simplex(3, -1.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_rejects_non_finite_and_negative_radii(self, radius):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            p_simplex(3, radius)

    @given(st.integers(min_value=2, max_value=10),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_range(self, m, radius):
        value = p_simplex(m, radius).value
        n_distinct = m if radius > 0 else 1
        assert 0 < value <= n_distinct + 1e-9


class TestEqualSplitOptimality:
    """For two pairs at fixed total energy, the even split maximizes P."""

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_random_splits_never_beat_even(self, c):
        stream = RandomStream(2024, 0)
        even = p_antipodal(anti(c / np.sqrt(2), c / np.sqrt(2))).value
        for _ in range(20):
            u = abs(stream.normal())
            frac = 0.02 + 0.96 * (u - int(u))  # energy fraction in (0.02, 0.98)
            a = c * np.sqrt(frac)
            b = c * np.sqrt(1.0 - frac)
            split = p_antipodal(anti(a, b)).value
            assert split <= even + 1e-9


class TestPairPlusOriginVsSimplex:
    """Comparison of one pair plus origin against the m-simplex at equal energy.

    For m = 7 the pair-plus-origin configuration wins in a small-energy
    window (the recorded witness below); at the sweep energies 1..50 the
    simplex dominates because it has more distinct points.  For m = 3 the
    simplex already wins at small energy.
    """

    WITNESS_ENERGY = 0.004

    @staticmethod
    def margin(m: int, energy: float) -> float:
        spec = QuadratureSpec(abs_tol=1e-11)
        pair = p_with_origin(anti(np.sqrt(energy / 2.0), origin=True), spec)
        simplex = p_simplex(m, float(np.sqrt(energy / m)), spec)
        return pair.value - simplex.value

    def test_witness_found_by_sweep(self):
        sweep = [3e-4, 1e-3, 2e-3, 3e-3, 4e-3, 7e-3, 1e-2, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        margins = {e: self.margin(7, e) for e in sweep}
        best = max(margins, key=margins.get)
        assert best == self.WITNESS_ENERGY
        assert margins[best] > 2e-11  # beats combined quadrature error by far
        assert margins[best] == pytest.approx(3.59e-4, rel=0.05)
        # at the coarse energies the simplex, with its 7 distinct points, wins
        assert all(margins[e] < 0 for e in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0))

    def test_three_vertex_simplex_wins_at_small_energy(self):
        assert self.margin(3, 0.5) < -1e-3
