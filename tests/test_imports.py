"""SciPy is loaded on the first Phi, not by importing gausscode.

Each case runs in a fresh interpreter, with ``PYTHONPATH`` at the
directory that holds the gausscode these tests import, and prints the
SciPy modules it ended with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausscode

SOURCE_ROOT = str(Path(gausscode.__file__).resolve().parent.parent)

PRELUDE = """
import contextlib, io, json, sys
import numpy as np
import gausscode
from gausscode import analytic, cli, configs, estimators, gaussian

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str, *argv: str):
    """Run ``body`` after the prelude in a new interpreter; its last stdout
    line, read as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + body, *argv],
        env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fresh_interpreter_imports_this_gausscode():
    assert run_fresh("print(json.dumps(gausscode.__file__))") == gausscode.__file__


SCIPY_FREE_PATHS = {
    "import": "",
    "mc_decode": "estimators.mc_decode(configs.regular_simplex(4, 1.0), 2000, 7)",
    "load_configuration": (
        "path = sys.argv[1] + '/c.json'\n"
        "configs.save_configuration(configs.regular_simplex(3, 1.0), path)\n"
        "configs.load_configuration(path)"
    ),
    "p_direct": "estimators.p_direct(configs.Configuration(1, [[1.0], [-1.0]]))",
    "eval_mc": (
        "path = sys.argv[1] + '/c.json'\n"
        "configs.save_configuration(configs.regular_simplex(4, 1.0), path)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['eval', 'mc', '--config', path, '--samples', '10000'])\n"
        "assert code == 0"
    ),
    "help": (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0"
    ),
    "usage_error": (
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['eval', 'steiner', '--k', 'two'])\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 2"
    ),
}


@pytest.mark.parametrize("path", sorted(SCIPY_FREE_PATHS))
def test_no_scipy_off_the_quadrature_path(path, tmp_path):
    body = SCIPY_FREE_PATHS[path] + "\nprint(json.dumps(scipy_modules()))"
    assert run_fresh(body, str(tmp_path)) == []


@pytest.mark.parametrize("module,first_phi", [
    ("analytic", "analytic.p_steiner(3, 1.0)"),
    ("gaussian", "gaussian.normal_cdf(0.5)"),
    ("estimators", "estimators.plank_product_gap("
                   "estimators.PlankSystem(np.eye(2), np.ones(2)), 1000, 0)"),
])
def test_first_phi_binds_the_ufunc(module, first_phi):
    body = (
        f"assert not scipy_modules()\n"
        f"{first_phi}\n"
        f"import scipy.special\n"
        f"print(json.dumps({module}.ndtr is scipy.special.ndtr))"
    )
    assert run_fresh(body) is True


def test_replacement_bound_before_first_phi_stays():
    # Two runs through a counting wrapper of the stand-in: were the name
    # rebound to the ufunc during the first run, the second would see fewer
    # calls, or none.
    body = """
stand_in, calls = analytic.ndtr, []

def counted(x):
    calls.append(np.size(x))
    return stand_in(x)

analytic.ndtr = counted
lengths = configs.AntipodalLengths((1.0, 0.6, 0.3), True)
first = analytic.p_with_origin(lengths).value
runs = [len(calls)]
second = analytic.p_with_origin(lengths).value
runs.append(len(calls) - runs[0])
kept = analytic.ndtr is counted
import scipy.special
analytic.ndtr = scipy.special.ndtr
print(json.dumps([kept, runs, first, second, analytic.p_with_origin(lengths).value]))
"""
    kept, runs, first, second, ufunc = run_fresh(body)
    assert kept
    assert runs[0] == runs[1] > 0
    assert repr(first) == repr(second) == repr(ufunc)
