from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausscode.analytic as analytic
import gausscode.optimize as opt
from gausscode.analytic import p_steiner, p_with_origin
from gausscode.configs import AntipodalLengths, EnergyBudget
from gausscode.gaussian import normal_cdf
from gausscode.optimize import OptimSettings, basin_hop, objective, threshold_scan

FAST = OptimSettings(hops=20, seed=5)


def refine(lengths, total_energy):
    """One local refinement from feasible lengths: (sorted lengths, converged)."""
    shares = 2.0 * np.square(np.asarray(lengths, dtype=float)) / total_energy
    search = opt._refine_shares(shares / shares.sum(), total_energy)
    shares, _, converged = opt._lockstep([search], opt.objective)[0]
    return opt._snap_sorted(shares, total_energy), converged


class TestObjective:
    def test_equal_with_origin_is_steiner(self):
        assert objective([1.0, 1.0, 1.0], include_origin=True) == pytest.approx(
            p_steiner(3, 1.0).value, abs=1e-12
        )

    def test_zero_pair_merges_to_origin(self):
        # The positive lengths in order plus one origin point, bit for bit,
        # with zeros at the front, in the middle and at the end.
        for row in ([1.0, 0.0], [0.0, 1.3, 0.7], [1.3, 0.0, 0.7], [1.3, 0.7, 0.0],
                    [0.0, 0.9, 5e-7, 1.2, 0.0]):
            want = p_with_origin(AntipodalLengths(tuple(a for a in row if a > 1e-6), True))
            assert repr(objective(row)) == repr(want.value), row

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("inf"), -float("inf")])
    def test_rejects_negative_and_non_finite_lengths(self, bad):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}"):
            objective([1.0, bad])
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}"):
            objective([[1.0, 0.5], [0.8, bad]], include_origin=True)

    def test_overflowing_lengths_refused(self):
        with pytest.raises(ValueError, match="pair length 1e[+]160 is too large"):
            objective([1e160, 1.0])
        # In a stack, the row at fault is named.
        with pytest.raises(ValueError, match="pair length 1e[+]155 is too large"):
            objective([[1.0, 0.5], [1e155, 2.0]])

    def test_empty_stack_gives_empty_array(self):
        got = objective(np.empty((0, 3)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 3, 4), (0, 2, 3), ()])
    def test_rejects_other_than_vector_or_stack(self, shape):
        with pytest.raises(ValueError, match=r"a vector or a \(B, k\) stack"):
            objective(np.ones(shape))

    def test_single_pair_closed_form(self):
        assert objective([1.3]) == pytest.approx(2 * normal_cdf(1.3), abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            objective([0.0, 0.0])
        with pytest.raises(ValueError):
            objective([[1.0, 0.0], [1e-7, 0.0]])

    @given(st.integers(min_value=1, max_value=6).flatmap(lambda k: st.lists(
        st.lists(st.one_of(st.just(0.0), st.just(5e-7), st.floats(1e-3, 3.0)),
                 min_size=k, max_size=k).filter(lambda row: max(row) > 1e-6),
        min_size=1, max_size=13)),
        st.booleans())
    @settings(max_examples=40, deadline=None)
    # A mixed batch: one live pair (no other factor), a zero in the middle,
    # and a full row.
    @example([[0.0, 1.2, 0.0], [0.8, 0.0, 1.1], [0.5, 0.9, 1.3]], False)
    @example([[0.0, 1.2, 0.0], [0.8, 0.0, 1.1], [0.5, 0.9, 1.3]], True)
    def test_stack_equals_rows(self, rows, include_origin):
        # One batched quadrature loop gives each row its own call's bits.
        stack = objective(np.array(rows), include_origin)
        assert stack.shape == (len(rows),)
        for row, got in zip(rows, stack):
            assert repr(float(got)) == repr(objective(row, include_origin))


class TestLocalRefine:
    def test_k1_is_forced(self):
        lengths, converged = refine([np.sqrt(3.0)], 6.0)
        assert lengths == (np.sqrt(3.0),)
        assert converged

    def test_k2_equalizes(self):
        start = [0.9, np.sqrt((4.0 - 2 * 0.81) / 2.0)]
        lengths, _ = refine(start, 4.0)
        assert lengths[0] == pytest.approx(1.0, abs=1e-4)
        assert lengths[1] == pytest.approx(1.0, abs=1e-4)

    def test_k3_near_equal_start(self):
        start = np.sqrt(np.array([0.34, 0.33, 0.33]) * 3.0)
        lengths, _ = refine(start, 6.0)
        assert np.allclose(lengths, 1.0, atol=1e-3)

    def test_permutation_invariance(self):
        total = 5.0
        base = np.array([0.3, 0.25, 0.45])
        results = []
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            start = np.sqrt(base[perm] * total / 2.0)
            results.append(refine(start, total)[0])
        for other in results[1:]:
            assert np.allclose(results[0], other, atol=1e-6)


class TestBasinHop:
    def test_k1_exact(self):
        result = basin_hop(1, EnergyBudget(2.0), FAST)
        assert result.lengths == (1.0,)
        assert result.p_value == pytest.approx(2 * normal_cdf(1.0), abs=1e-9)

    def test_k2_equal_split(self):
        result = basin_hop(2, EnergyBudget(4.0), FAST)
        assert np.allclose(result.lengths, 1.0, atol=1e-3)

    def test_k4_low_energy_drops_a_pair(self):
        result = basin_hop(4, EnergyBudget(2.0), FAST)
        top = np.sqrt(2.0 / 6.0)
        assert np.allclose(result.lengths[:3], top, atol=0.01)
        assert result.lengths[3] <= 0.02  # genuine tiny fourth pair
        assert result.p_value >= 1.9363359  # at least the three-pair value

    def test_sorted_descending_and_feasible(self):
        result = basin_hop(3, EnergyBudget(5.0), FAST)
        assert list(result.lengths) == sorted(result.lengths, reverse=True)
        achieved = 2 * sum(a * a for a in result.lengths)
        assert achieved == pytest.approx(5.0, rel=1e-9)

    def test_deterministic(self):
        a = basin_hop(3, EnergyBudget(4.0), FAST)
        b = basin_hop(3, EnergyBudget(4.0), FAST)
        assert a == b

    def test_thread_independence(self):
        a = basin_hop(3, EnergyBudget(4.0), FAST, threads=1)
        b = basin_hop(3, EnergyBudget(4.0), FAST, threads=4)
        assert a == b

    def test_improvement_indices_increase(self):
        result = basin_hop(4, EnergyBudget(6.0), FAST)
        assert list(result.improved_at) == sorted(set(result.improved_at))
        assert result.hops_taken == 4 + FAST.hops

    def test_p_value_is_reproducible_from_lengths(self):
        result = basin_hop(2, EnergyBudget(3.0), FAST)
        assert objective(result.lengths) == pytest.approx(result.p_value, abs=1e-12)


# repr of (lengths, p_value, improved_at, hops_taken, converged), frozen before
# the optimizer evaluated its candidates in batches, and the evaluations: the
# objective calls of a run that refines one candidate at a time (7,622 over
# the nine hops=1 rows).  (5, 4.0, 40, 0) improves at hop index 42, inside a
# batch of speculative hops: hops 38 and 39 then run again from the new
# incumbent, so it evaluates 6,387 candidates against 6,152 such calls.
FROZEN_ROWS = [
    (3, 1.0, 1, 0, ("0.4985114381588372", "0.49848998495109925", "0.0547181955866666"),
     "1.631356864994096", (0, 1), 4, True, 231),
    (3, 20.0, 1, 0, ("1.8257418583505538", "1.8257418583505536", "1.8257418583505536"),
     "4.372359704035186", (0,), 4, True, 276),
    (4, 2.0, 1, 0, ("0.5773159260580519", "0.5773157557802568", "0.5773157070507396",
                    "0.0109276731333477"), "1.9363864494397796", (0,), 5, True, 509),
    (4, 5.0, 1, 0, ("0.7905694150420949",) * 4, "2.602830302058938", (0,), 5, True, 505),
    (5, 4.0, 1, 0, ("0.8159766743107364", "0.8159449733299474", "0.8159326891787684",
                    "0.051642672480055885", "0.001657886305778416"),
     "2.4050644688016036", (0, 2, 3), 6, True, 958),
    (5, 12.0, 1, 0, ("1.0954451150103324",) * 4 + ("1.0954451150103321",),
     "3.779129809463004", (0,), 6, True, 901),
    (6, 4.0, 1, 0, ("0.8159679517663807", "0.8159668700750122", "0.8159164693143217",
                    "0.05169134020657336", "0.0016398412925693708", "0.0"),
     "2.405064468840991", (0, 3, 6), 7, True, 1381),
    (6, 10.0, 1, 0, ("1.1175341813990354", "1.1175341813885111", "1.117534181279471",
                     "1.117534180830014", "0.06678087426629128", "0.003119297026504097"),
     "3.473359458223873", (0, 2), 7, True, 1584),
    (6, 18.0, 1, 0, ("1.3413205004944317", "1.34127563815616", "1.3412416327507517",
                     "1.341239988313629", "1.341237880116173", "0.07117656010359713"),
     "4.624650681984597", (0, 1), 7, True, 1277),
    (5, 4.0, 40, 0, ("0.8159672452753", "0.8159616961061058", "0.8159245231040206",
                     "0.051656662379088183", "0.0016513493920502422"),
     "2.4050644689652394", (0, 2, 3, 42), 45, True, 6387),
    (3, 2.5, 5, 2, ("0.6454972243679029", "0.6454972243679028", "0.6454972243679028"),
     "2.0653218917879586", (0,), 8, True, 473),
]


class TestFrozenBasinHop:
    @pytest.mark.parametrize(
        "k, energy, hops, seed, lengths, p_value, improved_at, hops_taken, converged,"
        " evaluations",
        FROZEN_ROWS, ids=[f"k{r[0]}-E{r[1]}-h{r[2]}-s{r[3]}" for r in FROZEN_ROWS],
    )
    def test_bit_identical(self, k, energy, hops, seed, lengths, p_value, improved_at,
                           hops_taken, converged, evaluations):
        result = basin_hop(k, EnergyBudget(energy), OptimSettings(hops=hops, seed=seed))
        assert tuple(repr(a) for a in result.lengths) == lengths
        assert repr(result.p_value) == p_value
        assert result.improved_at == improved_at
        assert result.hops_taken == hops_taken
        assert result.converged is converged
        assert result.evaluations == evaluations


class TestWorkCounters:
    def test_small_case(self):
        # Counts are deterministic: a rise in work fails here, however noisy
        # the wall time.  Every candidate is one evaluation, as in a run that
        # refines one candidate at a time (479 objective calls).
        result = basin_hop(3, EnergyBudget(4.0), OptimSettings(hops=5))
        assert (result.evaluations, result.batches) == (479, 137)

    @pytest.mark.parametrize("k, energy, counts", [(4, 2.0, (509, 290)),
                                                   (6, 10.0, (1584, 840))])
    def test_polished_rows(self, k, energy, counts):
        # The boundary polish probes one zeroed pair at k = 4 and two at
        # k = 6, and refines each improving probe.
        result = basin_hop(k, EnergyBudget(energy), OptimSettings(hops=1))
        assert (result.evaluations, result.batches) == counts

    @pytest.mark.parametrize("k, energy, loops", [(4, 2.0, 290), (6, 10.0, 840)])
    def test_one_quadrature_loop_per_batch(self, monkeypatch, k, energy, loops):
        # Each objective call is one integrate_many loop: the nodes of these
        # rows reach every narrow layer, so no cell is checked again.
        calls = []
        integrate_many = analytic.integrate_many

        def counting(*args, **kwargs):
            calls.append(True)
            return integrate_many(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate_many", counting)
        result = basin_hop(k, EnergyBudget(energy), OptimSettings(hops=1))
        assert len(calls) == result.batches == loops


class TestSpeculativeHops:
    def test_quadrature_error_in_a_hop_batch_falls_back_to_one_hop(self, monkeypatch):
        # The 5 hops of k = 3 start as one stack of 15 initial vertices.  A
        # QuadratureError there reruns the first hop alone, and the result
        # is the same as without the error.
        want = basin_hop(3, EnergyBudget(2.5), OptimSettings(hops=5, seed=2))
        original, raised = opt.objective, []

        def failing_once(lengths, include_origin=False, spec=None):
            if np.ndim(lengths) == 2 and len(lengths) == 15 and not raised:
                raised.append(True)
                raise opt.QuadratureError("injected")
            return original(lengths, include_origin, spec)

        monkeypatch.setattr(opt, "objective", failing_once)
        got = basin_hop(3, EnergyBudget(2.5), OptimSettings(hops=5, seed=2))
        assert raised
        assert (got.lengths, got.p_value, got.improved_at, got.converged) == (
            want.lengths, want.p_value, want.improved_at, want.converged)

    def test_quadrature_error_of_the_next_hop_propagates(self, monkeypatch):
        original, batches = opt.objective, []

        def failing(lengths, include_origin=False, spec=None):
            if np.ndim(lengths) == 2 and len(lengths) == 15:
                batches.append(True)
                raise opt.QuadratureError("hop batch")
            if batches and np.ndim(lengths) == 2 and len(lengths) == 3:
                raise opt.QuadratureError("first hop alone")
            return original(lengths, include_origin, spec)

        monkeypatch.setattr(opt, "objective", failing)
        with pytest.raises(opt.QuadratureError, match="first hop alone"):
            basin_hop(3, EnergyBudget(2.5), OptimSettings(hops=5, seed=2))


class TestFeasibilityInstrumented:
    def test_every_candidate_on_the_shell(self, monkeypatch):
        seen = []
        original = opt.objective

        def recording(lengths, include_origin=False, spec=None):
            for row in np.atleast_2d(lengths):
                seen.append(2.0 * float(np.sum(np.square(row))))
            return original(lengths, include_origin, spec)

        monkeypatch.setattr(opt, "objective", recording)
        basin_hop(3, EnergyBudget(2.5), OptimSettings(hops=5, seed=2))
        assert seen
        assert all(abs(e - 2.5) <= 1e-9 * 2.5 for e in seen)


class TestThresholdScan:
    def test_k1_first_grid_point(self):
        assert threshold_scan(1, [0.5, 1.0, 2.0], FAST) == 0.5

    def test_k3_small_grid(self):
        got = threshold_scan(3, [1.0, 2.0, 3.0], OptimSettings(hops=12, seed=4))
        assert got == 2.0

    def test_runs_its_grid_through_optimize_rows(self, monkeypatch):
        calls, original = [], opt.optimize_rows

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(opt, "optimize_rows", recording)
        assert threshold_scan(1, [0.5, 1.0], FAST) == 0.5
        assert calls == [(1, [0.5, 1.0], FAST, None)]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_scan(2, [1.0], FAST)
        with pytest.raises(ValueError):
            threshold_scan(2, [2.0, 1.0], FAST)


class TestSettingsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OptimSettings(hops=0)

    def test_negative_seed_rejected_up_front(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            OptimSettings(seed=-1)

    def test_only_hops_and_seed(self):
        assert [f.name for f in fields(OptimSettings)] == ["hops", "seed"]
