from dataclasses import fields

import numpy as np
import pytest

import gausscode.optimize as opt
from gausscode.analytic import p_steiner, p_with_origin
from gausscode.configs import AntipodalLengths, EnergyBudget
from gausscode.gaussian import normal_cdf
from gausscode.optimize import OptimSettings, basin_hop, objective, threshold_scan

FAST = OptimSettings(hops=20, seed=5)


def refine(lengths, total_energy):
    """One local refinement from feasible lengths: (sorted lengths, converged)."""
    shares = 2.0 * np.square(np.asarray(lengths, dtype=float)) / total_energy
    shares, _, converged = opt._refine_shares(shares / shares.sum(), total_energy, None)
    return opt._snap_sorted(shares, total_energy), converged


class TestObjective:
    def test_equal_with_origin_is_steiner(self):
        assert objective([1.0, 1.0, 1.0], include_origin=True) == pytest.approx(
            p_steiner(3, 1.0).value, abs=1e-12
        )

    def test_zero_pair_merges_to_origin(self):
        got = objective([1.0, 0.0])
        want = p_with_origin(AntipodalLengths((1.0,), True)).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_single_pair_closed_form(self):
        assert objective([1.3]) == pytest.approx(2 * normal_cdf(1.3), abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            objective([0.0, 0.0])


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


class TestFeasibilityInstrumented:
    def test_every_candidate_on_the_shell(self, monkeypatch):
        seen = []
        original = opt.objective

        def recording(lengths, include_origin=False, spec=None):
            seen.append(2.0 * float(np.sum(np.square(np.asarray(lengths)))))
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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_scan(2, [1.0], FAST)
        with pytest.raises(ValueError):
            threshold_scan(2, [2.0, 1.0], FAST)


class TestSettingsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OptimSettings(hops=0)

    def test_only_hops_and_seed(self):
        assert [f.name for f in fields(OptimSettings)] == ["hops", "seed"]
