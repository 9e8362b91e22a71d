import json

import numpy as np
import pytest

from reference_tables import OPT_TABLE_K3, OPT_TABLE_K4, OPT_TABLE_K5, OPT_TABLE_K6

from gausscode.cli import main
from gausscode.analytic import p_steiner
from gausscode.gaussian import QuadratureSpec
from gausscode.optimize import objective
from gausscode.reporting import (
    STEINER_ENERGY_GRID,
    THRESHOLD_ENERGY_GRIDS,
    TableRequest,
    pair_length,
    parse_steiner_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(path, dimension, points):
    path.write_text(json.dumps({"dimension": dimension, "points": points}))
    return str(path)


class TestEval:
    def test_steiner_display(self, capsys):
        code, out, _ = run(capsys, "eval", "steiner", "--k", "1", "--energy", "0.1")
        assert code == 0
        assert "1.178" in out
        assert "method: analytic" in out

    def test_antipodal_display(self, capsys):
        code, out, _ = run(capsys, "eval", "antipodal", "--lengths", "1")
        assert code == 0
        assert "1.6827" in out

    def test_simplex_by_energy(self, capsys):
        code, out, _ = run(capsys, "eval", "simplex", "--m", "2", "--energy", "2.0")
        assert code == 0
        assert "1.6827" in out  # same as one pair of unit vectors

    def test_mc_single_point(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", 2, [[0.5, 0.5]])
        code, out, _ = run(capsys, "eval", "mc", "--config", cfg,
                           "--samples", "1000", "--seed", "0")
        assert code == 0
        assert "value: 1.0" in out
        assert "std_error: 0" in out

    def test_direct_pair(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", 1, [[1.0], [-1.0]])
        code, out, _ = run(capsys, "eval", "direct", "--config", cfg)
        assert code == 0
        value = float(out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(1.6826894921, abs=1e-6)

    def test_conflicting_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "steiner", "--k", "1", "--energy", "1", "--length", "2"])
        assert err.value.code == 2

    def test_quadrature_failure_exit_1(self, capsys):
        code, out, err = run(capsys, "eval", "steiner", "--k", "20", "--length", "5.0",
                             "--tol", "1e-12")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "subdivisions" in err

    @pytest.mark.parametrize("mode,energy", [
        ("steiner", "inf"), ("steiner", "-1"), ("steiner", "nan"),
        ("simplex", "inf"), ("simplex", "-1"), ("simplex", "nan"),
    ])
    def test_bad_energy_exit_1(self, capsys, mode, energy):
        flag = "--k" if mode == "steiner" else "--m"
        code, out, err = run(capsys, "eval", mode, flag, "3", "--energy", energy)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "mc", "--config", "unused.json"],
        ["table", "--kind", "steiner", "--out", "unused.csv"],
        ["table", "--kind", "optimize", "--k-values", "2", "--energies", "4.0",
         "--out", "unused.csv"],
        ["check"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_threads_exit_2(self, capsys, argv, threads):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", threads])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "mc", "--config", "/nonexistent.json",
                           "--samples", "10")
        assert code == 1
        assert "error" in err.lower()


class TestTable:
    def test_steiner_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "table", "--kind", "steiner",
                         "--k-values", "1-3", "--energies", "0.5,2.0,10.0",
                         "--out", str(out_path))
        assert code == 0
        energies, ks, display, full = parse_steiner_csv(out_path.read_text())
        assert list(ks) == [1, 2, 3]
        assert np.allclose(energies, [0.5, 2.0, 10.0])
        spec = QuadratureSpec(abs_tol=1e-10)
        for i, e in enumerate(energies):
            for j, k in enumerate(ks):
                again = p_steiner(k, pair_length(e, k), spec).value
                assert abs(again - full[i, j]) <= 1e-9
                assert f"{full[i, j]:.3f}" == f"{display[i, j]:.3f}"

    def test_structured_text_format(self, capsys, tmp_path):
        out_path = tmp_path / "grid.txt"
        code, _, _ = run(capsys, "table", "--kind", "steiner", "--k-values", "1",
                         "--energies", "1.0", "--format", "structured-text",
                         "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert "k=1" in text and "1.553" in text

    def test_optimize_kind(self, capsys, tmp_path):
        out_path = tmp_path / "opt.csv"
        code, _, _ = run(capsys, "table", "--kind", "optimize", "--k-values", "2",
                         "--energies", "4.0", "--hops", "10", "--seed", "1",
                         "--out", str(out_path))
        assert code == 0
        lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[:4] == ["E", "a1", "a2", "P"]
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-3)
        assert float(row[2]) == pytest.approx(1.0, abs=1e-3)
        # full-precision companions reproduce the displayed values and the
        # achieved P when the objective is re-evaluated on them
        assert f"{float(row[4]):.3f}" == row[1]
        full_lengths = [float(row[4]), float(row[5])]
        p_full = float(row[6])
        assert objective(full_lengths) == pytest.approx(p_full, abs=1e-9)

    def test_optimize_requires_single_k(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--kind", "optimize", "--k-values", "2,3",
                  "--energies", "4.0", "--out", "/tmp/unused.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("kind", ["steiner", "optimize"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--hops", "0", "hops must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
    ])
    def test_bad_hops_or_seed_exit_1(self, capsys, tmp_path, kind, flag, value, message):
        out_path = tmp_path / "never.csv"
        code, _, err = run(capsys, "table", "--kind", kind, "--k-values", "2",
                           "--energies", "1.0", flag, value, "--out", str(out_path))
        assert code == 1
        assert err == f"error: {message}, got {value}\n"
        assert not out_path.exists()

    def test_unwritable_path_exit_1(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "steiner", "--k-values", "1",
                           "--energies", "1.0", "--out", "/nonexistent-dir/x.csv")
        assert code == 1


class TestTableRequest:
    def test_default_energy_grid_shape(self):
        assert len(STEINER_ENERGY_GRID) == 50
        assert STEINER_ENERGY_GRID[0] == 0.1
        assert STEINER_ENERGY_GRID[-1] == 1000.0
        assert list(STEINER_ENERGY_GRID) == sorted(STEINER_ENERGY_GRID)

    def test_pair_length_mapping(self):
        assert pair_length(2.0, 1) == pytest.approx(1.0)
        assert pair_length(8.0, 4) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TableRequest("bogus", (1,), (1.0,))
        with pytest.raises(ValueError):
            TableRequest("steiner", (), (1.0,))
        with pytest.raises(ValueError):
            TableRequest("optimize", (2, 3), (1.0,))
        with pytest.raises(ValueError):
            TableRequest("optimize", (2,), (0.0,))
        with pytest.raises(ValueError):
            TableRequest("steiner", (1,), (-1.0,))
        with pytest.raises(ValueError):
            TableRequest("steiner", (1,), (1.0,), tolerance=-1.0)
        with pytest.raises(ValueError):
            TableRequest("steiner", (1,), (1.0,), output_format="yaml")

    def test_zero_energy_grid_cell(self, capsys, tmp_path):
        out_path = tmp_path / "zero.csv"
        code = main(["table", "--kind", "steiner", "--k-values", "1",
                     "--energies", "0", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        row = [ln for ln in out_path.read_text().splitlines()
               if not ln.startswith("#")][1]
        assert row.split(",")[1] == "1.000"


class TestOptimize:
    @pytest.mark.parametrize("flag", [
        "--threads", "--perturbation-scale", "--local-tol", "--zero-floor",
    ])
    def test_removed_flags_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--k", "2", "--energy", "4.0", flag, "1"])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err


class TestScan:
    def test_k3_threshold_line(self, capsys):
        code, out, _ = run(capsys, "scan", "--k-values", "3", "--hops", "5",
                           "--seed", "1")
        assert code == 0
        assert out == ("k = 3: all-equal from E = 2.0 on the grid "
                       "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 20.0]\n")

    @pytest.mark.parametrize("k_values", ["7", "3,7", ""])
    def test_k_without_grid_exit_2(self, capsys, k_values):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--k-values", k_values])
        assert err.value.code == 2
        assert "(3, 4, 5, 6)" in capsys.readouterr().err

    def test_grids_are_the_published_energies(self):
        published = {3: OPT_TABLE_K3, 4: OPT_TABLE_K4, 5: OPT_TABLE_K5, 6: OPT_TABLE_K6}
        assert THRESHOLD_ENERGY_GRIDS == {
            k: tuple(e for e, _ in rows) for k, rows in published.items()
        }


class TestCompare:
    def test_renders_both_columns(self, capsys):
        code, out, _ = run(capsys, "compare", "--m", "2", "--energies", "1.0")
        assert code == 0
        assert "antipodal" in out and "simplex" in out

    def test_small_energy_renders(self, capsys):
        code, out, _ = run(capsys, "compare", "--m", "4", "--energies", "0.5",
                           "--per-codeword")
        assert code == 0
        assert "0.500" in out

    def test_witness_direction_visible(self, capsys):
        code, out, _ = run(capsys, "compare", "--m", "7", "--energies", "0.004")
        line = [ln for ln in out.splitlines() if ln.lstrip().startswith("0.004")][0]
        assert "+" in line  # the antipodal side wins at the witness energy


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--samples", "20000", "--seed", "0")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 12


class TestThreadReproducibility:
    def test_eval_mc_threads(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", 2,
                           [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.3], [0.0, -1.3]])
        _, out1, _ = run(capsys, "eval", "mc", "--config", cfg, "--samples", "50000",
                         "--seed", "3", "--threads", "1")
        _, out4, _ = run(capsys, "eval", "mc", "--config", cfg, "--samples", "50000",
                         "--seed", "3", "--threads", "4")
        assert out1 == out4

    def test_table_threads(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["table", "--kind", "steiner", "--k-values", "1-4",
                "--energies", "0.5,1.0,2.0"]
        run(capsys, *base, "--threads", "1", "--out", str(a))
        run(capsys, *base, "--threads", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
