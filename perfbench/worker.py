"""Times one workload against gausscode's public API, in a process of its own.

Started by run.py with BLAS/OpenMP pinned to one thread.  It imports the
package from the checkout's ``src``, builds the workload's inputs, warms
up, then runs whole rounds of the workload's fixed work until the next
round would end past ``--seconds``.  It writes JSON lines to stdout: first
the monotonic time at which set-up ended, then one line per round with the
round's wall time, every operation's time and output, and with
``--trace 1`` the round's per-layer spans and counts.  It checks nothing:
run.py does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gausscode import analytic, cli, configs, estimators, optimize  # noqa: E402

import workloads as W  # noqa: E402


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def _p_op(name: str, fn, *args) -> dict:
    """Time one P evaluation; its record holds the value or the error."""
    dt, res, err = _timed(fn, *args)
    return {"op": name, "s": dt, "value": None if res is None else res.value,
            "error": err}


# -- optimize_rows -----------------------------------------------------------

def optimize_setup(seed: int, out_dir: Path):
    settings = optimize.OptimSettings(hops=W.OPT_HOPS, seed=W.OPT_SEED)
    rows = [(k, configs.EnergyBudget(e)) for k, e in W.optimize_rows(seed)]
    return settings, rows


def optimize_warmup(state) -> None:
    settings, _ = state
    optimize.basin_hop(3, configs.EnergyBudget(2.0), settings, threads=1)


def optimize_round(state, round_index: int) -> list[dict]:
    settings, rows = state
    ops = []
    for k, budget in rows:
        dt, res, err = _timed(optimize.basin_hop, k, budget, settings, threads=1)
        op = {"k": k, "energy": budget.total, "s": dt, "error": err}
        if res is not None:
            op.update(lengths=list(res.lengths), p_value=res.p_value,
                      hops_taken=res.hops_taken, improved_at=list(res.improved_at))
        ops.append(op)
    return ops


# -- closed_forms ------------------------------------------------------------

def closed_forms_setup(seed: int, out_dir: Path):
    inputs = W.closed_form_inputs(seed)
    csv_path = out_dir / f"steiner-{seed}.csv"
    argv = ["table", "--kind", "steiner",
            "--k-values", ",".join(str(k) for k in W.TABLE_K),
            "--energies", ",".join(repr(e) for e in W.TABLE_ENERGIES),
            "--tol", repr(W.TABLE_TOL), "--threads", "1", "--out", str(csv_path)]
    return inputs, argv, csv_path


def closed_forms_warmup(state) -> None:
    _, _, csv_path = state
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["table", "--kind", "steiner", "--k-values", "1,2",
                  "--energies", "0.5,2", "--threads", "1", "--out", str(csv_path)])
    analytic.p_steiner(3, 1.0)
    analytic.p_simplex(3, 1.0)
    analytic.p_with_origin(configs.AntipodalLengths((1.0, 0.5), True))
    analytic.p_antipodal(configs.AntipodalLengths((1.0, 0.5), False))


def _p_large(kind: str, k: int, a: float):
    if kind == "p_steiner":
        return analytic.p_steiner(k, a)
    lengths = configs.AntipodalLengths((a,) * k, kind == "p_with_origin")
    return getattr(analytic, kind)(lengths)


def closed_forms_round(state, round_index: int) -> list[dict]:
    inputs, argv, csv_path = state
    scale = W.round_scale(round_index)
    with contextlib.redirect_stdout(io.StringIO()):
        dt, code, err = _timed(cli.main, argv)
    csv = csv_path.read_text(encoding="utf-8") if err is None else ""
    ops = [{"op": "table", "s": dt, "value": code, "error": err,
            "csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
            "csv": csv if round_index == 0 else None}]
    for _, with_origin, lengths in inputs["random"]:
        spec = configs.AntipodalLengths(tuple(a * scale for a in lengths), with_origin)
        fn = analytic.p_with_origin if with_origin else analytic.p_antipodal
        ops.append(_p_op("random", fn, spec))
    for k, a in inputs["equal"]:
        spec = configs.AntipodalLengths((a * scale,) * k, True)
        ops.append(_p_op("equal_origin", analytic.p_with_origin, spec))
        ops.append(_p_op("equal_steiner", analytic.p_steiner, k, a * scale))
    for m, r in inputs["simplex"]:
        ops.append(_p_op("simplex", analytic.p_simplex, m, r * scale))
    for kind, k, a in inputs["large"]:
        ops.append(_p_op("large", _p_large, kind, k, a))
    return ops


# -- mc_decode ---------------------------------------------------------------

def mc_setup(seed: int, out_dir: Path):
    inputs = W.mc_inputs(seed)
    pairs = configs.embed_antipodal(configs.AntipodalLengths(inputs["pairs"], True))
    simplex = configs.regular_simplex(W.MC_SIMPLEX_M, inputs["radius"])
    paths = []
    for name, config in (("pairs", pairs), ("simplex", simplex)):
        path = out_dir / f"mc-{seed}-{name}.json"
        configs.save_configuration(config, path)
        paths.append((name, path))
    return inputs, paths


def mc_warmup(state) -> None:
    inputs, paths = state
    for _, path in paths:
        estimators.mc_decode(configs.load_configuration(path), 1000, inputs["mc_seed"],
                             threads=1)


def mc_round(state, round_index: int) -> list[dict]:
    inputs, paths = state
    ops = []
    for name, path in paths:
        def op():
            config = configs.load_configuration(path)
            report = estimators.mc_decode(config, inputs["samples"], inputs["mc_seed"],
                                          threads=1)
            return config, report

        dt, res, err = _timed(op)
        entry = {"config": name, "s": dt, "error": err}
        if res is not None:
            config, report = res
            entry.update(points=config.points.tolist(), estimate=report.estimate,
                         std_error=report.std_error, samples=report.samples)
        ops.append(entry)
    return ops


WORKLOAD_FUNCS = {
    "optimize_rows": (optimize_setup, optimize_warmup, optimize_round),
    "closed_forms": (closed_forms_setup, closed_forms_warmup, closed_forms_round),
    "mc_decode": (mc_setup, mc_warmup, mc_round),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    setup, warmup, run_round = WORKLOAD_FUNCS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = setup(args.seed, out_dir)
    setup_end = time.monotonic()

    warmup(state)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # One JSON line per round, written as it ends, so the worker's memory
    # does not grow with the number of rounds.
    print(json.dumps({"setup_end": setup_end}), flush=True)
    begin = time.perf_counter()
    round_index = 0
    while True:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        ops = run_round(state, round_index)
        wall = time.perf_counter() - start
        print(json.dumps({"round": round_index, "wall_s": wall, "ops": ops,
                          "layers": tracer and tracer.snapshot()}), flush=True)
        round_index += 1
        if time.perf_counter() - begin + wall > args.seconds:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
