import json

import numpy as np
import pytest

from reference_tables import OPT_TABLE_K3, OPT_TABLE_K4, OPT_TABLE_K5, OPT_TABLE_K6

from gausscode import reporting
from gausscode.cli import main
from gausscode.analytic import p_steiner
from gausscode.gaussian import QuadratureSpec
from gausscode.optimize import objective
from gausscode.reporting import (
    STEINER_ENERGY_GRID,
    THRESHOLD_ENERGY_GRIDS,
    pair_length,
    parse_steiner_csv,
)


# The four table outputs, byte for byte.
STEINER_ARGS = ("--kind", "steiner", "--k-values", "1-4", "--energies", "0,0.5,2,10")
OPTIMIZE_ARGS = ("--kind", "optimize", "--k-values", "3", "--energies", "1,2.5",
                 "--hops", "3")
STEINER_CSV = (
    '# P(k, E) for k equal orthogonal antipodal pairs plus an origin point; pair length a = sqrt(E/(2k))\n'
    'E,k=1,k=2,k=3,k=4,k=1_full,k=2_full,k=3_full,k=4_full\n'
    '0.000,1.000,1.000,1.000,1.000,0.9999999999999971,0.999999999999997,0.9999999999999971,0.999999999999997\n'
    '0.500,1.395,1.434,1.428,1.413,1.3948253027316915,1.434202577391391,1.427688860652012,1.4125131052658189\n'
    '2.000,1.766,1.919,1.936,1.916,1.7658498450960485,1.9185623929028641,1.9363359852940267,1.9162089479231175\n'
    '10.000,2.473,3.125,3.392,3.473,2.4728950454340497,3.124531055512813,3.3921849998967115,3.4725327951422207\n'
)
STEINER_TEXT = (
    'P(k, E), pair length a = sqrt(E/(2k)), origin point included\n'
    '         E      k=1      k=2      k=3      k=4\n'
    '     0.000    1.000    1.000    1.000    1.000\n'
    '     0.500    1.395    1.434    1.428    1.413\n'
    '     2.000    1.766    1.919    1.936    1.916\n'
    '    10.000    2.473    3.125    3.392    3.473\n'
)
OPTIMIZE_CSV = (
    '# optimized lengths of 3 orthogonal antipodal pairs at fixed energy, sorted descending; share of pair i is 2*a_i^2/E\n'
    'E,a1,a2,a3,P,a1_full,a2_full,a3_full,P_full\n'
    '1.000,0.499,0.498,0.055,1.631,0.4985114381588372,0.49848998495109925,0.0547181955866666,1.631356864994096\n'
    '2.500,0.645,0.645,0.645,2.065,0.6454972243679029,0.6454972243679028,0.6454972243679028,2.0653218917879586\n'
)
OPTIMIZE_TEXT = (
    'optimized antipodal pair lengths, k = 3\n'
    '         E       a1       a2       a3          P\n'
    '     1.000    0.499    0.498    0.055      1.631\n'
    '     2.500    0.645    0.645    0.645      2.065\n'
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

    @pytest.mark.parametrize("command,m", [
        ("eval", "0"), ("eval", "1"), ("eval", "-2"), ("compare", "0"),
    ], ids=["0", "1", "-2", "compare"])
    def test_bad_simplex_m_exit_1(self, capsys, command, m):
        argv = {"eval": ["eval", "simplex", "--m", m, "--energy", "1"],
                "compare": ["compare", "--m", m, "--energies", "1"]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: m must be >= 2, got {m}\n"

    @pytest.mark.parametrize("flag", ["--energy", "--length"])
    def test_bad_steiner_k_exit_1(self, capsys, flag):
        code, out, err = run(capsys, "eval", "steiner", "--k", "0", flag, "1")
        assert code == 1
        assert out == ""
        assert err == "error: k must be >= 1, got 0\n"

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
    @pytest.mark.parametrize("args, fmt, expected", [
        (STEINER_ARGS, "csv", STEINER_CSV),
        (STEINER_ARGS, "structured-text", STEINER_TEXT),
        (OPTIMIZE_ARGS, "csv", OPTIMIZE_CSV),
        (OPTIMIZE_ARGS, "structured-text", OPTIMIZE_TEXT),
    ], ids=["steiner-csv", "steiner-text", "optimize-csv", "optimize-text"])
    def test_golden_output(self, capsys, tmp_path, args, fmt, expected):
        out_path = tmp_path / "table"
        code, out, _ = run(capsys, "table", *args, "--format", fmt,
                           "--out", str(out_path))
        assert code == 0
        assert out == f"wrote {out_path}\n"
        assert out_path.read_bytes() == expected.encode()

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

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "steiner", "--k-values", "0", "--energies", "1"],
         "k must be >= 1, got 0"),
        (["--kind", "steiner", "--k-values", "1", "--energies", "-1"],
         "energy must be a nonnegative number, got -1.0"),
        (["--kind", "steiner", "--k-values", "1", "--energies", "nan"],
         "energy must be a nonnegative number, got nan"),
        (["--kind", "optimize", "--k-values", "2", "--energies", "4,0"],
         "total energy must be positive, got 0.0"),
        (["--kind", "steiner", "--k-values", "1", "--energies", "1", "--tol", "-1"],
         "abs_tol must be positive, got -1.0"),
    ])
    def test_bad_input_exit_1(self, capsys, tmp_path, monkeypatch, argv, message):
        hops = []
        monkeypatch.setattr(reporting, "basin_hop", lambda *a: hops.append(a))
        out_path = tmp_path / "never.csv"
        code, out, err = run(capsys, "table", *argv, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_path.exists()
        assert hops == []

    @pytest.mark.parametrize("argv", [
        ["--kind", "bogus"],
        ["--kind", "steiner", "--format", "yaml"],
        ["--kind", "steiner", "--k-values", "3-1", "--energies", "1"],
    ])
    def test_bad_usage_exit_2(self, capsys, tmp_path, argv):
        out_path = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main(["table", *argv, "--out", str(out_path)])
        assert err.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(errors) == 1
        assert not out_path.exists()


class TestEmptyLists:
    """An empty list is a usage error, never the default grid."""

    @pytest.mark.parametrize("argv", [
        ["table", "--kind", "steiner", "--k-values", ",", "--energies", "1"],
        ["table", "--kind", "steiner", "--k-values", "1", "--energies", ","],
        ["table", "--kind", "optimize", "--k-values", "3", "--energies", ""],
        ["compare", "--m", "3", "--energies", ","],
        ["scan", "--k-values", ","],
        ["scan", "--k-values", ""],
    ], ids=["table-k", "table-energies", "optimize-energies", "compare", "scan",
            "scan-blank"])
    def test_exit_2(self, capsys, tmp_path, argv):
        out_path = tmp_path / "never.csv"
        if argv[0] == "table":
            argv = [*argv, "--out", str(out_path)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        errors = [ln for ln in out.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "empty list" in errors[0]
        assert not out_path.exists()


class TestTableRequest:
    def test_default_energy_grid_shape(self):
        assert len(STEINER_ENERGY_GRID) == 50
        assert STEINER_ENERGY_GRID[0] == 0.1
        assert STEINER_ENERGY_GRID[-1] == 1000.0
        assert list(STEINER_ENERGY_GRID) == sorted(STEINER_ENERGY_GRID)

    def test_pair_length_mapping(self):
        assert pair_length(2.0, 1) == pytest.approx(1.0)
        assert pair_length(8.0, 4) == pytest.approx(1.0)

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

    @pytest.mark.parametrize("k_values", ["7", "3,7"])
    def test_k_without_grid_exit_2(self, capsys, k_values):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--k-values", k_values])
        assert err.value.code == 2
        assert "(3, 4, 5, 6)" in capsys.readouterr().err

    def test_reversed_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--k-values", "5-3"])
        assert err.value.code == 2
        assert "range '5-3' runs backwards" in capsys.readouterr().err

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

    def test_per_codeword_output(self, capsys):
        code, out, _ = run(capsys, "compare", "--m", "7", "--energies",
                           "3e-4,0.01,1,10", "--per-codeword")
        assert code == 0
        assert out == (
            "one antipodal pair plus origin vs regular 7-simplex at equal energy\n"
            "per-codeword factor f = log2(N)/N = 0.401051 (N = 7)\n"
            "         E    antipodal      simplex   difference  antipodal*f    simplex*f\n"
            "     0.000     1.009772     1.009592    +0.000180     0.404970     0.404898\n"
            "     0.010     1.056407     1.056220    +0.000187     0.423673     0.423598\n"
            "     1.000     1.552653     1.652670    -0.100017     0.622692     0.662804\n"
            "    10.000     2.472895     3.580318    -1.107422     0.991756     1.435889\n"
        )

    @pytest.mark.parametrize("energy, message", [
        ("-1", "energy must be a nonnegative number, got -1.0"),
        ("nan", "energy must be a nonnegative number, got nan"),
        ("0", "pair lengths must be positive, got 0.0"),
        ("inf", "pair lengths must be finite and positive, got inf"),
    ])
    def test_bad_energy_prints_nothing_exit_1(self, capsys, energy, message):
        # Every row is computed before the header is printed.
        code, out, err = run(capsys, "compare", "--m", "3", "--energies", f"1,{energy}")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_infinite_energy_exit_1(self, capsys):
        code, out, err = run(capsys, "compare", "--m", "3", "--energies", "inf")
        assert code == 1
        assert out == ""
        assert err == "error: pair lengths must be finite and positive, got inf\n"


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--samples", "20000", "--seed", "0")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 12


    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples_exit_1(self, capsys, samples):
        code, out, err = run(capsys, "check", "--samples", samples)
        assert code == 1
        assert "FAIL" not in out
        assert err == f"error: samples must be >= 1, got {samples}\n"


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
