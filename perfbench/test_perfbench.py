"""Tests of the benchmark itself: its reference quadrature and its checkers.

Run with ``python3 -m pytest perfbench``.  The checkers must reject a wrong
output of each workload, and the reference must match P where it is known
in closed form.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference as ref
import workloads as W
from published import STEINER_TABLE

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 2.5, 6.0])
def test_one_pair_closed_forms(a):
    assert ref.axis_cells([a], False) == pytest.approx(2.0 * ref.Phi(a), abs=1e-13)
    assert ref.axis_cells([a], True) == pytest.approx(4.0 * ref.Phi(a / 2) - 1.0, abs=1e-13)


def test_equal_pairs_agree_with_steiner_form():
    for k in (2, 5, 12):
        assert ref.axis_cells([0.8] * k, True) == pytest.approx(ref.steiner(k, 0.8), abs=1e-12)


def test_two_point_simplex_is_one_pair():
    assert ref.simplex(2, 1.3) == pytest.approx(2.0 * ref.Phi(1.3), abs=1e-13)


def test_published_copy_matches_test_suite():
    path = HERE.parent / "tests" / "reference_tables.py"
    if not path.is_file():
        pytest.skip("the test suite's tables are not in this checkout")
    spec = importlib.util.spec_from_file_location("suite_reference_tables", path)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    import published

    for name in ("STEINER_TABLE", "OPT_TABLE_K3", "OPT_TABLE_K4", "OPT_TABLE_K5",
                 "OPT_TABLE_K6"):
        assert getattr(published, name) == getattr(tables, name)


def _row_op(lengths, energy):
    active = [a for a in lengths if a > 0]
    p = ref.axis_cells(active, len(active) < len(lengths))
    return {"k": len(lengths), "energy": energy, "lengths": list(lengths),
            "p_value": p, "error": None}


def test_optimize_checker_rejects_length_off_the_shell():
    good = [math.sqrt(20.0 / 6.0)] * 3
    assert checks.check_optimize_row(_row_op(good, 20.0)) == []
    off = [a * (1.0 + 1e-6) for a in good]
    problems = checks.check_optimize_row(_row_op(off, 20.0))
    assert any("off the shell" in p for p in problems)


def test_optimize_checker_rejects_p_below_published_row():
    # k=4 at E=5 is published as four equal pairs; three equal pairs on the
    # same shell are feasible but worse.
    three = [math.sqrt(5.0 / 6.0)] * 3 + [0.0]
    problems = checks.check_optimize_row(_row_op(three, 5.0))
    assert any("trails the published row" in p for p in problems)


def _steiner_csv(grid):
    ks = W.TABLE_K
    lines = ["# P(k, E)",
             ",".join(["E"] + [f"k={k}" for k in ks] + [f"k={k}_full" for k in ks])]
    for energy, row in zip(W.TABLE_ENERGIES, grid):
        lines.append(",".join([f"{energy:.3f}"] + [f"{v:.3f}" for v in row]
                              + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def test_csv_checker_rejects_a_cell_below_published():
    grid = [list(row[1:]) for row in STEINER_TABLE]
    assert checks.check_steiner_csv(_steiner_csv(grid)) == []
    grid[17][4] -= 1e-3
    problems = checks.check_steiner_csv(_steiner_csv(grid))
    assert len(problems) == 1 and "k=5, E=5.0" in problems[0]


def test_mc_checker_rejects_estimate_ten_errors_off():
    want, se = 4.5, 2e-3
    op = {"config": "pairs", "error": None, "samples": W.MC_SAMPLES, "std_error": se}
    assert checks.check_mc_op({**op, "estimate": want + 3.0 * se}, want, W.MC_SAMPLES) == []
    problems = checks.check_mc_op({**op, "estimate": want - 10.0 * se}, want, W.MC_SAMPLES)
    assert any("more than 5 se" in p for p in problems)


def _bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_forms_run_counts_only_the_large_lengths_as_failed():
    result = _bench("--workload", "closed_forms", "--seed", "3", "--seconds", "0.1",
                    "--trace", "0")
    assert result["correct"] is True
    per_round = (len(W.TABLE_K) * len(W.TABLE_ENERGIES)
                 + 2 * len(W.RANDOM_K) * (W.RANDOM_PER_K + 1) + len(W.SIMPLEX_M) + 9)
    assert result["attempted"] % per_round == 0
    assert result["failed"] == 9 * result["attempted"] // per_round
    assert set(result["metrics"]) == {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}


def test_traced_counts_repeat():
    args = ("--workload", "closed_forms", "--seed", "4", "--seconds", "0.1", "--trace", "1")
    first, second = _bench(*args), _bench(*args)
    counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert counts["analytic.p_steiner.calls"] > 0
    assert counts["gaussian.integrate_adaptive.panels"] > 0
    assert counts["optimize.objective.calls"] == 0
    assert counts["estimators.mc_decode.calls"] == 0
