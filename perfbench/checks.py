"""Checks of every workload's outputs against computations made apart from gausscode.

Each ``check_*`` function returns a list of problems, empty when the output
is right.  :func:`check_run` applies them to all rounds of one run and
counts attempted and failed operations.  An operation fails when it raises;
the large-length closed_forms operations also fail when their value misses
the large-length limit, because of a known fault of the program (see
README.md).  Every other check that does not hold is a wrong output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
import workloads as W
from published import STEINER_TABLE

SHELL_RTOL = 1e-9
P_TOL = 1e-8
PUBLISHED_MARGIN = 1e-6
STEINER_PATHS_TOL = 2e-10
CSV_TOL = 5e-4 + W.TABLE_TOL
LARGE_TOL = 1e-6
MC_SIGMAS = 5.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fail_reasons: dict[str, str] = field(default_factory=dict)


# -- optimize_rows -----------------------------------------------------------

@functools.cache
def published_p(k: int, energy: float) -> float:
    """P of a published row, rescaled onto the energy shell; zero pairs merge
    into one origin point, as in the package's objective."""
    active, origin = ref.shell_lengths(W.published_lengths(k, energy), energy)
    return ref.axis_cells(active, origin)


def check_optimize_row(op: dict) -> list[str]:
    k, energy = op["k"], op["energy"]
    name = f"basin_hop k={k} E={energy}"
    if op.get("error"):
        return [f"{name} raised {op['error']}"]
    lengths, p = op["lengths"], op["p_value"]
    problems = []
    if len(lengths) != k:
        problems.append(f"{name}: {len(lengths)} lengths, expected {k}")
    achieved = 2.0 * sum(a * a for a in lengths)
    if not abs(achieved - energy) <= SHELL_RTOL * energy:
        problems.append(f"{name}: energy {achieved!r} is off the shell {energy}")
    active = [a for a in lengths if a > 0]
    origin = len(active) < len(lengths)
    if not active:
        return problems + [f"{name}: no active pair"]
    want = ref.axis_cells(active, origin)
    if not abs(p - want) <= P_TOL:
        problems.append(f"{name}: p_value {p!r} but quadrature of its lengths gives {want!r}")
    floor = published_p(k, energy) - PUBLISHED_MARGIN
    if not p >= floor:
        problems.append(f"{name}: p_value {p!r} trails the published row's {floor!r}")
    distinct = 2 * len(active) + origin
    if not 1.0 <= p <= distinct:
        problems.append(f"{name}: p_value {p!r} outside [1, {distinct}]")
    return problems


# -- closed_forms ------------------------------------------------------------

def check_steiner_csv(text: str) -> list[str]:
    """The CLI's steiner CSV against the published P(k, E) table."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return ["steiner CSV is empty"]
    header = lines[0].split(",")
    ks = W.TABLE_K
    want_header = ["E"] + [f"k={k}" for k in ks] + [f"k={k}_full" for k in ks]
    if header != want_header:
        return [f"steiner CSV header {header[:3]}... is not {want_header[:3]}..."]
    rows = lines[1:]
    if len(rows) != len(STEINER_TABLE):
        return [f"steiner CSV has {len(rows)} rows, expected {len(STEINER_TABLE)}"]
    problems = []
    for line, published in zip(rows, STEINER_TABLE):
        cells = [float(x) for x in line.split(",")]
        energy, display, full = cells[0], cells[1:1 + len(ks)], cells[1 + len(ks):]
        if abs(energy - published[0]) > 5e-4:
            problems.append(f"steiner CSV row E={energy} where E={published[0]} was asked")
        for k, shown, value, want in zip(ks, display, full, published[1:]):
            if not abs(value - want) <= CSV_TOL:
                problems.append(f"steiner CSV P(k={k}, E={published[0]}) = {value!r}, "
                                f"published {want}")
            if not abs(shown - value) <= 5e-4 + 1e-12:
                problems.append(f"steiner CSV k={k} E={published[0]} shows {shown} "
                                f"for {value!r}")
    return problems


def check_value(name: str, value, want: float, tol: float) -> list[str]:
    if value is None or not abs(value - want) <= tol:
        return [f"{name} = {value!r}, expected {want!r} to {tol:g}"]
    return []


def large_limit(kind: str, k: int) -> float:
    """P as lengths grow without bound: every distinct point decodes surely."""
    return 2.0 * k if kind == "p_antipodal" else 2.0 * k + 1.0


def _closed_form_references(inputs: dict) -> dict:
    return {
        "random": [ref.axis_cells(lengths, with_origin)
                   for _, with_origin, lengths in inputs["random"]],
        "equal": [ref.steiner(k, a) for k, a in inputs["equal"]],
        "simplex": [ref.simplex(m, r) for m, r in inputs["simplex"]],
    }


def check_closed_forms_round(inputs: dict, refs: dict, ops: list[dict],
                             round_index: int, verdict: Verdict) -> None:
    scale = W.round_scale(round_index)
    table, rest = ops[0], ops[1:]
    verdict.attempted += len(W.TABLE_K) * len(W.TABLE_ENERGIES)
    if table["error"]:
        verdict.failed += len(W.TABLE_K) * len(W.TABLE_ENERGIES)
        verdict.problems.append(f"steiner table raised {table['error']}")
    by_kind: dict[str, list[dict]] = {}
    for op in rest:
        by_kind.setdefault(op["op"], []).append(op)
    verdict.attempted += len(rest)
    for op in rest:
        if op["error"] and op["op"] != "large":
            verdict.failed += 1
            verdict.problems.append(f"{op['op']} evaluation raised {op['error']}")

    for (k, origin, _), want, op in zip(inputs["random"], refs["random"], by_kind["random"]):
        name = f"{'p_with_origin' if origin else 'p_antipodal'} k={k} (round {round_index})"
        verdict.problems += check_value(name, op["value"], want, P_TOL)
    for (k, a), want, pairs_op, steiner_op in zip(
            inputs["equal"], refs["equal"], by_kind["equal_origin"], by_kind["equal_steiner"]):
        by_pairs, by_steiner = pairs_op["value"], steiner_op["value"]
        verdict.problems += check_value(f"p_steiner k={k} a={a}", by_steiner, want, P_TOL)
        if by_pairs is not None and by_steiner is not None:
            verdict.problems += check_value(
                f"p_with_origin k={k} equal lengths {a} vs p_steiner",
                by_pairs, by_steiner, STEINER_PATHS_TOL)
    for (m, r), want, op in zip(inputs["simplex"], refs["simplex"], by_kind["simplex"]):
        if m == 2:
            want, tol = 2.0 * ref.Phi(r * scale), 1e-9
        else:
            tol = P_TOL
        verdict.problems += check_value(f"p_simplex m={m} r={r}", op["value"], want, tol)
    for (kind, k, a), op in zip(inputs["large"], by_kind["large"]):
        limit = large_limit(kind, k)
        if op["error"] or not abs(op["value"] - limit) <= LARGE_TOL:
            verdict.failed += 1
            got = op["error"] or f"returned {op['value']!r}"
            verdict.fail_reasons[f"{kind} k={k} a={a:g}"] = (
                f"{got}; the limit is {limit:g} (large lengths, a known fault)")


# -- mc_decode ---------------------------------------------------------------

def check_mc_file(name: str, points: list, inputs: dict) -> list[str]:
    """The configuration file describes the intended code."""
    if name == "pairs":
        want = [[0.0] * W.MC_PAIRS]
        for i, a in enumerate(inputs["pairs"]):
            for sign in (1.0, -1.0):
                row = [0.0] * W.MC_PAIRS
                row[i] = sign * a
                want.append(row)
        if sorted(points) != sorted(want):
            return ["pairs configuration file does not hold +-a_i e_i and the origin"]
        return []
    r, m = inputs["radius"], W.MC_SIMPLEX_M
    problems = []
    if len(points) != m or any(len(p) != m - 1 for p in points):
        return [f"simplex configuration file is not {m} points in dimension {m - 1}"]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            dot = sum(x * y for x, y in zip(p, q))
            want = r * r if i == j else -r * r / (m - 1)
            if abs(dot - want) > 1e-12 * max(1.0, r * r):
                problems.append(f"simplex vertices {i},{j}: inner product {dot!r}, "
                                f"expected {want!r}")
    return problems


def check_mc_op(op: dict, want: float, samples: int) -> list[str]:
    name = f"mc_decode {op['config']}"
    if op.get("error"):
        return [f"{name} raised {op['error']}"]
    problems = []
    if op["samples"] != samples:
        problems.append(f"{name}: {op['samples']} samples, asked {samples}")
    se = op["std_error"]
    if not (se > 0 and abs(op["estimate"] - want) <= MC_SIGMAS * se):
        problems.append(f"{name}: estimate {op['estimate']!r} (se {se!r}) is more "
                        f"than {MC_SIGMAS:g} se from {want!r}")
    return problems


# -- one run -----------------------------------------------------------------

def check_run(workload: str, seed: int, rounds: list[dict], out_dir: Path) -> Verdict:
    verdict = Verdict()
    if workload == "optimize_rows":
        for rnd in rounds:
            for op in rnd["ops"]:
                verdict.attempted += 1
                verdict.failed += bool(op["error"])
                verdict.problems += check_optimize_row(op)
    elif workload == "closed_forms":
        inputs = W.closed_form_inputs(seed)
        refs = _closed_form_references(inputs)
        first = rounds[0]["ops"][0]
        if first["csv"] is not None:
            verdict.problems += check_steiner_csv(first["csv"])
        for i, rnd in enumerate(rounds):
            if rnd["ops"][0]["csv_sha256"] != first["csv_sha256"]:
                verdict.problems.append(f"round {i} wrote another steiner CSV than round 0")
            check_closed_forms_round(inputs, refs, rnd["ops"], i, verdict)
    elif workload == "mc_decode":
        inputs = W.mc_inputs(seed)
        wants = {"pairs": ref.axis_cells(inputs["pairs"], True),
                 "simplex": ref.simplex(W.MC_SIMPLEX_M, inputs["radius"])}
        saved = {}
        for name in wants:
            path = out_dir / f"mc-{seed}-{name}.json"
            saved[name] = json.loads(path.read_text(encoding="utf-8"))["points"]
            verdict.problems += check_mc_file(name, saved[name], inputs)
        first = {op["config"]: op for op in rounds[0]["ops"]}
        for rnd in rounds:
            for op in rnd["ops"]:
                name = op["config"]
                verdict.attempted += 1
                verdict.failed += bool(op["error"])
                verdict.problems += check_mc_op(op, wants[name], inputs["samples"])
                if op["error"]:
                    continue
                if op["points"] != saved[name]:
                    verdict.problems.append(f"{name}: loaded points differ from the file")
                if op["estimate"] != first[name].get("estimate"):
                    verdict.problems.append(f"{name}: the same seed gave another estimate")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return verdict
