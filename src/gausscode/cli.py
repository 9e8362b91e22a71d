"""Command-line surface: evaluate, tabulate, optimize, scan, compare, check.

Exit codes: 0 on success, 1 on runtime or file errors, 2 on usage errors.
Monte Carlo and optimizer commands are bit-reproducible for a fixed seed.
``eval mc`` and ``check`` spread their Monte Carlo work over ``--threads``
worker threads, with the same result for any thread count; ``table``
accepts ``--threads`` and ignores it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analytic import p_antipodal, p_simplex, p_steiner, p_with_origin
from .configs import (
    AntipodalLengths,
    ConfigurationError,
    EnergyBudget,
    load_configuration,
)
from .estimators import (
    PlankSystem,
    mc_decode,
    p_direct,
    plank_product_gap,
    slice_identity_check,
)
from .gaussian import QuadratureError, QuadratureSpec, RandomStream
from .optimize import OptimSettings, basin_hop, threshold_scan
from .reporting import (
    FORMAT_CSV,
    FORMAT_TEXT,
    KIND_OPTIMIZE,
    KIND_STEINER,
    STEINER_ENERGY_GRID,
    STEINER_K_GRID,
    THRESHOLD_ENERGY_GRIDS,
    optimize_rows,
    pair_length,
    render_optimize,
    render_steiner,
    steiner_grid,
)


def _items(text: str) -> list[str]:
    """The nonblank comma-separated items of ``text``; an empty list is refused."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return items


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in _items(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, with lo-hi ranges allowed (e.g. '1-20')."""
    out: list[int] = []
    try:
        for item in _items(text):
            if "-" in item[1:]:
                lo, hi = (int(x) for x in item.split("-"))
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"range {item!r} runs backwards")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(item))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc
    return tuple(out)


def _threads_default() -> int:
    return os.cpu_count() or 1


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscode",
        description="Correct-decoding probability of point codes under Gaussian noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # eval ----------------------------------------------------------------
    ev = sub.add_parser("eval", help="evaluate P for one configuration")
    ev_modes = ev.add_subparsers(dest="mode", required=True)

    ev_steiner = ev_modes.add_parser("steiner", help="k equal pairs plus origin")
    ev_steiner.add_argument("--k", type=int, required=True)
    group = ev_steiner.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float)
    group.add_argument("--length", type=float)
    ev_steiner.add_argument("--tol", type=float, default=1e-10)

    ev_anti = ev_modes.add_parser("antipodal", help="orthogonal pairs of given lengths")
    ev_anti.add_argument("--lengths", type=_parse_floats, required=True)
    ev_anti.add_argument("--with-origin", action="store_true")
    ev_anti.add_argument("--tol", type=float, default=1e-10)

    ev_simplex = ev_modes.add_parser("simplex", help="regular m-simplex")
    ev_simplex.add_argument("--m", type=int, required=True)
    group = ev_simplex.add_mutually_exclusive_group(required=True)
    group.add_argument("--energy", type=float)
    group.add_argument("--radius", type=float)
    ev_simplex.add_argument("--tol", type=float, default=1e-10)

    ev_mc = ev_modes.add_parser("mc", help="Monte Carlo decoding of a config file")
    ev_mc.add_argument("--config", required=True)
    ev_mc.add_argument("--samples", type=int, default=1_000_000)
    ev_mc.add_argument("--seed", type=int, default=0)
    ev_mc.add_argument("--threads", type=_parse_threads, default=_threads_default())

    ev_direct = ev_modes.add_parser("direct", help="direct integration of a config file")
    ev_direct.add_argument("--config", required=True)
    ev_direct.add_argument("--tol", type=float, default=1e-10)

    # table ---------------------------------------------------------------
    tb = sub.add_parser("table", help="emit a probability or optimization table")
    tb.add_argument("--kind", choices=[KIND_STEINER, KIND_OPTIMIZE], required=True)
    tb.add_argument("--k-values", type=_parse_ints, default=None,
                    help="k columns (steiner) or the single k (optimize)")
    tb.add_argument("--energies", type=_parse_floats, default=None)
    tb.add_argument("--tol", type=float, default=1e-10)
    tb.add_argument("--out", required=True)
    tb.add_argument("--format", choices=[FORMAT_CSV, FORMAT_TEXT], default=FORMAT_CSV)
    tb.add_argument("--threads", type=_parse_threads, default=_threads_default(),
                    help="accepted and ignored; tables are computed serially")
    tb.add_argument("--hops", type=int, default=200)
    tb.add_argument("--seed", type=int, default=0)

    # optimize ------------------------------------------------------------
    op = sub.add_parser("optimize", help="optimize pair lengths at one energy")
    op.add_argument("--k", type=int, required=True)
    op.add_argument("--energy", type=float, required=True)
    op.add_argument("--hops", type=int, default=200)
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--tol", type=float, default=1e-10)

    # scan ----------------------------------------------------------------
    sc = sub.add_parser(
        "scan", help="energy from which the optimum stays all-equal, per k"
    )
    sc.add_argument("--k-values", type=_parse_ints,
                    default=tuple(THRESHOLD_ENERGY_GRIDS))
    sc.add_argument("--hops", type=int, default=60)
    sc.add_argument("--seed", type=int, default=1)

    # compare -------------------------------------------------------------
    cp = sub.add_parser(
        "compare", help="one antipodal pair plus origin vs the regular m-simplex"
    )
    cp.add_argument("--m", type=int, required=True)
    cp.add_argument("--energies", type=_parse_floats, required=True)
    cp.add_argument("--per-codeword", action="store_true",
                    help="also scale by log2(N)/N with N = m")
    cp.add_argument("--tol", type=float, default=1e-10)

    # check ---------------------------------------------------------------
    ck = sub.add_parser("check", help="run the slicing / plank validation suite")
    ck.add_argument("--samples", type=int, default=100_000)
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--threads", type=_parse_threads, default=_threads_default())

    return parser


def _print_estimate(est) -> None:
    print(f"value: {est.value!r}")
    print(f"display: {est.value:.4f}")
    print(f"method: {est.method}")
    print(f"abs_error: {est.abs_error:g}")


def cmd_eval(args) -> int:
    spec = QuadratureSpec(abs_tol=getattr(args, "tol", 1e-10))
    if getattr(args, "energy", None) is not None and not args.energy >= 0:
        raise ValueError(f"--energy must be a nonnegative number, got {args.energy}")
    if args.mode == "steiner":
        a = args.length if args.length is not None else pair_length(args.energy, args.k)
        _print_estimate(p_steiner(args.k, a, spec))
    elif args.mode == "antipodal":
        lengths = AntipodalLengths(args.lengths, args.with_origin)
        est = p_with_origin(lengths, spec) if args.with_origin else p_antipodal(lengths, spec)
        _print_estimate(est)
    elif args.mode == "simplex":
        if args.m < 2:
            raise ValueError(f"m must be >= 2, got {args.m}")
        r = args.radius if args.radius is not None else float(np.sqrt(args.energy / args.m))
        _print_estimate(p_simplex(args.m, r, spec))
    elif args.mode == "mc":
        config = load_configuration(args.config)
        report = mc_decode(config, args.samples, args.seed, threads=args.threads)
        print(f"value: {report.estimate!r}")
        print(f"display: {report.estimate:.4f}")
        print("method: montecarlo")
        print(f"std_error: {report.std_error:g}")
        print(f"samples: {report.samples}")
        print(f"seed: {report.seed}")
    elif args.mode == "direct":
        config = load_configuration(args.config)
        _print_estimate(p_direct(config, spec))
    return 0


def cmd_table(args) -> int:
    spec = QuadratureSpec(abs_tol=args.tol)
    # Validated for both kinds, though only optimize tables use them.
    settings = OptimSettings(hops=args.hops, seed=args.seed)
    if args.kind == KIND_STEINER:
        k_values = args.k_values or STEINER_K_GRID
        energies = args.energies or STEINER_ENERGY_GRID
        grid = steiner_grid(k_values, energies, spec)
        text = render_steiner(k_values, energies, grid, args.format)
    else:
        if not args.k_values or len(args.k_values) != 1:
            raise UsageError("optimize tables need exactly one k via --k-values")
        if not args.energies:
            raise UsageError("optimize tables need --energies")
        (k,) = args.k_values
        rows = optimize_rows(k, args.energies, settings, spec)
        text = render_optimize(k, args.energies, rows, args.format)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_optimize(args) -> int:
    settings = OptimSettings(hops=args.hops, seed=args.seed)
    spec = QuadratureSpec(abs_tol=args.tol)
    result = basin_hop(args.k, EnergyBudget(args.energy), settings, spec)
    print("lengths: " + ", ".join(repr(a) for a in result.lengths))
    print("display: " + ", ".join(f"{a:.3f}" for a in result.lengths))
    print(f"p_value: {result.p_value!r}")
    print(f"hops_taken: {result.hops_taken}")
    print(f"improved_at: {list(result.improved_at)}")
    print(f"converged: {result.converged}")
    return 0


def cmd_scan(args) -> int:
    """Per k, the grid energy from which the optimized lengths stay all-equal."""
    if any(k not in THRESHOLD_ENERGY_GRIDS for k in args.k_values):
        known = ", ".join(str(k) for k in THRESHOLD_ENERGY_GRIDS)
        raise UsageError(f"--k-values must be among the k with energy grids "
                         f"({known}), got {', '.join(str(k) for k in args.k_values)}")
    settings = OptimSettings(hops=args.hops, seed=args.seed)
    for k in args.k_values:
        grid = list(THRESHOLD_ENERGY_GRIDS[k])
        threshold = threshold_scan(k, grid, settings)
        print(f"k = {k}: all-equal from E = {threshold} on the grid {grid}")
    return 0


def cmd_compare(args) -> int:
    if args.m < 2:
        raise ValueError(f"m must be >= 2, got {args.m}")
    spec = QuadratureSpec(abs_tol=args.tol)
    factor = float(np.log2(args.m) / args.m)
    rows = [
        (e,
         p_with_origin(AntipodalLengths((pair_length(e, 1),), True), spec).value,
         p_simplex(args.m, float(np.sqrt(e / args.m)), spec).value)
        for e in args.energies
    ]
    header = f"{'E':>10} {'antipodal':>12} {'simplex':>12} {'difference':>12}"
    if args.per_codeword:
        header += f" {'antipodal*f':>12} {'simplex*f':>12}"
    print(f"one antipodal pair plus origin vs regular {args.m}-simplex at equal energy")
    if args.per_codeword:
        print(f"per-codeword factor f = log2(N)/N = {factor:.6f} (N = {args.m})")
    print(header)
    for e, anti, simp in rows:
        line = f"{e:>10.3f} {anti:>12.6f} {simp:>12.6f} {anti - simp:>+12.6f}"
        if args.per_codeword:
            line += f" {anti * factor:>12.6f} {simp * factor:>12.6f}"
        print(line)
    return 0


# The slicing checks pass within 0.02, so direct integration needs far less
# than its 1e-7 default: at 1e-5 the 2-D case takes ~0.2 s instead of ~3 s.
_CHECK_DIRECT_SPEC = QuadratureSpec(abs_tol=1e-5)


def cmd_check(args) -> int:
    """Slicing-identity and plank-product spot checks; nonzero exit on failure."""
    from .configs import Configuration

    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1

    # Slicing identity on two small configurations.
    cases = [
        Configuration(1, [[1.0], [-1.0]]),
        Configuration(2, [[0.9, 0.0], [-0.4, 0.8], [0.2, -0.9]]),
    ]
    for idx, config in enumerate(cases):
        norms2 = (config.points**2).sum(axis=1)
        y_grid = np.geomspace(1e-6, float(np.exp(norms2.max() + 5.0)), 300)
        recon = slice_identity_check(config, y_grid, args.samples, args.seed,
                                     threads=args.threads)
        direct = p_direct(
            Configuration(config.dimension, config.points * np.sqrt(2.0)),
            _CHECK_DIRECT_SPEC,
        ).value
        ok = abs(recon - direct) < 0.02
        report(f"slicing identity #{idx}", ok,
               f"reconstructed {recon:.4f} vs direct {direct:.4f}")

    # Plank intersections dominate the product of their marginals.
    stream = RandomStream(args.seed, 1)
    for idx in range(10):
        n = 2 if idx % 2 == 0 else 3
        m = 2 if idx < 5 else 3
        dirs = stream.normal((m, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        widths = 0.3 + 1.5 * (1.0 + np.tanh(stream.normal(m))) / 2.0
        system = PlankSystem(dirs, widths)
        rep, product = plank_product_gap(system, args.samples, args.seed + idx)
        ok = rep.estimate >= product - 3.0 * rep.std_error
        report(f"plank product #{idx}", ok,
               f"measure {rep.estimate:.4f} >= product {product:.4f} - 3se")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {10 + len(cases) - failures}"
          f"/{10 + len(cases)} checks passed")
    return 0 if failures == 0 else 1


class UsageError(Exception):
    """Command-line usage problems detectable only after parsing."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "table": cmd_table,
        "optimize": cmd_optimize,
        "scan": cmd_scan,
        "compare": cmd_compare,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        return 2
    except (ConfigurationError, OSError, QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
