"""Per-layer spans and work counts, recorded from outside the package.

:func:`install` replaces each traced public function of gausscode with a
wrapper, in every gausscode module namespace that holds it, so a call is
seen however the calling module looked the name up.  This is the same
patching ``tests/test_optimize.py`` does to ``optimize.objective``.  A
span's self time is its duration minus the durations of the traced spans
directly inside it.  Spans are aggregated per layer name in memory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.reset()
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(counts, args, kwargs, result)`` counts work."""

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        out.update(self.counts)
        return out


def _count_normal(counts, args, kwargs, result):
    counts["gaussian.RandomStream.normal.draws"] += int(np.size(result))


def _count_mc(counts, args, kwargs, result):
    config, samples = args[0], args[1]
    counts["estimators.mc_decode.point_samples"] += (
        int(samples) * int(config.distinct_points().shape[0])
    )


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "gausscode" and not name.startswith("gausscode."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported gausscode."""
    from gausscode import analytic, configs, estimators, gaussian, optimize, reporting, cli

    spans = [
        ("optimize.objective", optimize.objective, None),
        ("optimize.basin_hop", optimize.basin_hop, None),
        ("analytic.p_with_origin", analytic.p_with_origin, None),
        ("analytic.p_antipodal", analytic.p_antipodal, None),
        ("analytic.p_steiner", analytic.p_steiner, None),
        ("analytic.p_simplex", analytic.p_simplex, None),
        ("reporting.steiner_grid", reporting.steiner_grid, None),
        ("reporting.render_steiner", reporting.render_steiner, None),
        ("cli.main", cli.main, None),
        ("estimators.mc_decode", estimators.mc_decode, _count_mc),
        ("configs.load_configuration", configs.load_configuration, None),
    ]
    for name, fn, after in spans:
        _replace_everywhere(fn, tracer.wrap(name, fn, after))

    integrate = gaussian.integrate_adaptive

    def counted_integrate(f, *args, **kwargs):
        def counted_f(x):
            tracer.counts["gaussian.integrate_adaptive.rounds"] += 1
            tracer.counts["gaussian.integrate_adaptive.panels"] += int(x.shape[0])
            return f(x)

        return integrate(counted_f, *args, **kwargs)

    _replace_everywhere(
        integrate, tracer.wrap("gaussian.integrate_adaptive", counted_integrate)
    )

    ndtr = analytic.ndtr

    def counted_ndtr(x):
        out = ndtr(x)
        tracer.counts["analytic.ndtr.evals"] += int(np.size(out))
        return out

    analytic.ndtr = counted_ndtr

    gaussian.RandomStream.normal = tracer.wrap(
        "gaussian.RandomStream.normal", gaussian.RandomStream.normal, _count_normal
    )
