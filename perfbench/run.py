"""Benchmark of gausscode: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 30 --trace 0

The workload runs in a fresh worker process (worker.py) with BLAS and
OpenMP pinned to one thread.  This process waits for it, then checks every
output against the benchmark's own quadrature and the published tables
(checks.py).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its layers to ``perfbench/out/``.  Exits 1 when the
worker fails, without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# The names of workloads.WORKLOADS.  This process imports nothing heavy
# (workloads.py imports NumPy) before the worker has ended, so that neither
# its memory nor its CPU shows in the worker's measurements.
WORKLOADS = ("optimize_rows", "closed_forms", "mc_decode")

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Operations whose time enters op_p50_ms, per workload.  closed_forms times
# the CLI table as one call over its 1000 cells, so only the evaluations it
# times one by one count, and not the large-length ones that fail.
TIMED_OPS = {"random", "equal_origin", "equal_steiner", "simplex"}

# (name, unit): counts are exact and come from the first round; times are
# medians over rounds of one round's seconds.
PER_LAYER = (
    ("optimize.objective.calls", "count"),
    ("optimize.objective.s", "s"),
    ("optimize.basin_hop.s", "s"),
    ("optimize.search.self_s", "s"),
    ("optimize.improving_hops.ratio", "ratio"),
    ("analytic.p_with_origin.calls", "count"),
    ("analytic.p_with_origin.s", "s"),
    ("analytic.p_antipodal.calls", "count"),
    ("analytic.p_antipodal.s", "s"),
    ("analytic.ndtr.evals", "count"),
    ("analytic.p_steiner.calls", "count"),
    ("analytic.p_steiner.s", "s"),
    ("analytic.p_simplex.calls", "count"),
    ("analytic.p_simplex.s", "s"),
    ("gaussian.integrate_adaptive.calls", "count"),
    ("gaussian.integrate_adaptive.s", "s"),
    ("gaussian.integrate_adaptive.panels", "count"),
    ("gaussian.integrate_adaptive.rounds", "count"),
    ("reporting.steiner_grid.s", "s"),
    ("reporting.render_steiner.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("gaussian.RandomStream.normal.draws", "count"),
    ("gaussian.RandomStream.normal.s", "s"),
    ("estimators.mc_decode.calls", "count"),
    ("estimators.mc_decode.s", "s"),
    ("estimators.mc_decode.self_s", "s"),
    ("estimators.mc_decode.point_samples", "count"),
    ("configs.load_configuration.calls", "count"),
    ("configs.load_configuration.s", "s"),
)
# Per-layer names that read a differently named span.
SPAN_OF = {"optimize.search.self_s": "optimize.basin_hop.self_s"}


def run_worker(args) -> tuple[float, float, list[dict]]:
    """Run the worker; returns (setup_s, peak_rss_mb, round records)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=min(150.0, 3.0 * args.seconds + 60.0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines or "setup_end" not in lines[0] or len(lines) < 2:
        raise RuntimeError("worker printed no rounds")
    return lines[0]["setup_end"] - start, peak_rss_mb, lines[1:]


def end_to_end(workload: str, setup_s: float, peak_rss_mb: float, rounds) -> dict:
    ops = [op for rnd in rounds for op in rnd["ops"]
           if workload != "closed_forms" or op["op"] in TIMED_OPS]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rnd["wall_s"] for rnd in rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(op["s"] for op in ops), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rounds) -> dict:
    first = rounds[0]["layers"]
    out = {}
    for name, unit in PER_LAYER:
        span = SPAN_OF.get(name, name)
        if unit == "count":
            value = first.get(span, 0)
        elif unit == "s":
            value = statistics.median(rnd["layers"].get(span, 0.0) for rnd in rounds)
        else:
            hops = [op for op in rounds[0]["ops"] if "hops_taken" in op]
            taken = sum(op["hops_taken"] for op in hops)
            value = sum(len(op["improved_at"]) for op in hops) / taken if taken else 0.0
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gausscode" / "__init__.py").is_file():
        print(f"error: no gausscode sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        setup_s, peak_rss_mb, rounds = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The checks import SciPy; only now, so the worker had the machine alone.
    import checks

    verdict = checks.check_run(args.workload, args.seed, rounds, OUT_DIR)
    for problem in verdict.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    for op, reason in sorted(verdict.fail_reasons.items()):
        print(f"FAILED: {op}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(rounds)
        wall = statistics.median(rnd["wall_s"] for rnd in rounds)
        dump = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                "traced_wall_s": wall, "layers": {k: v for k, (v, _) in metrics.items()}}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    else:
        metrics = end_to_end(args.workload, setup_s, peak_rss_mb, rounds)
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
