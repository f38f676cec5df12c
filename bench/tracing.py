"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces, at run time, the public functions that one
``linkverify`` module calls in another (for example ``cli.load_trace``
or ``harness.interval_from_counts``) with wrappers that record a span:
name, start, end, parent span and the request it belongs to. No source
file of the program changes, and an untraced run installs nothing.

A layer's self time is its span's duration minus the time covered by
its child spans; the request's own span is ``cli``, so ``cli.self_ms``
is request time outside every layer.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from collections import defaultdict
from time import perf_counter


# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "channel.load_ms": "ms", "channel.outcomes_loaded": "count",
    "channel.draw_ms": "ms", "channel.outcomes_drawn": "count",
    "channel.save_ms": "ms",
    "intervals.exact_ms": "ms", "intervals.exact_calls": "count",
    "intervals.closed_form_ms": "ms", "intervals.closed_form_calls": "count",
    "harness.experiment_ms": "ms", "harness.csv_ms": "ms",
    "harness.interval_evals": "count", "harness.evals_per_cell": "ratio",
    "verify.decide_ms": "ms", "verify.general_ms": "ms",
    "verify.general_points": "count", "sysmodel.kronecker_ms": "ms",
    "sysmodel.lyapunov_ms": "ms", "sysmodel.lyapunov_calls": "count",
    "sysmodel.critical_rate_ms": "ms", "sysmodel.simulate_ms": "ms",
    "sysmodel.simulate_steps_per_s": "1/s", "cli.self_ms": "ms",
    "channel.sloc": "lines", "intervals.sloc": "lines",
    "complexity.sloc": "lines", "sysmodel.sloc": "lines",
    "verify.sloc": "lines", "harness.sloc": "lines", "cli.sloc": "lines",
    "api.public_names": "count", "host.ref_loop_ms": "ms",
}


def _interval_layer(method) -> str:
    return "intervals.exact" if method.value == "exact" else "intervals.closed_form"


def _build_interval_layer(args, kwargs) -> str:
    """build_interval(trace, delta, method)"""
    return _interval_layer(kwargs.get("method") or args[2])


def _from_counts_layer(args, kwargs) -> str:
    """interval_from_counts(method, successes, n, delta)"""
    return _interval_layer(kwargs.get("method") or args[0])


class Tracer:
    """Spans in memory, keyed to the current (request, pass)."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.request: tuple = ("setup", 0)
        self.counts: dict = defaultdict(int)   # (request, counter) -> total

    def _wrap(self, fn, layer, counter=None, amount=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
            if counter is not None:
                counts[(self.request, counter)] += 1 if amount is None else amount(
                    args, result)
            if callable(layer):
                counts[(self.request, name + "_calls")] += 1
            return result

        return traced

    def install(self, lv) -> None:
        """Wrap each cross-module call site of the layers named in the README."""
        cli, harness, verify = lv.cli, lv.harness, lv.verify
        sysmodel, channel = lv.sysmodel, lv.channel
        drawn = lambda args, _r: int(args[1])
        plan = [
            (cli, "load_trace", "channel.load", "channel.outcomes_loaded",
             lambda _a, r: len(r)),
            (cli, "draw_trace", "channel.draw", "channel.outcomes_drawn", drawn),
            (harness, "draw_trace", "channel.draw", "channel.outcomes_drawn", drawn),
            (channel, "save_trace", "channel.save", None, None),
            (harness, "interval_from_counts", _from_counts_layer,
             "harness.interval_evals", None),
            (verify, "build_interval", _build_interval_layer, None, None),
            (cli, "stability_test", "verify.decide", None, None),
            (cli, "cost_test", "verify.decide", None, None),
            (harness, "decide_stability", "verify.decide", None, None),
            (harness, "decide_cost", "verify.decide", None, None),
            (cli, "general_test", "verify.general", None, None),
            (verify, "kronecker_stable", "sysmodel.kronecker",
             "verify.general_points", None),
            (sysmodel, "lyapunov_cost", "sysmodel.lyapunov",
             "sysmodel.lyapunov_calls", None),
            (verify, "lyapunov_cost", "sysmodel.lyapunov",
             "sysmodel.lyapunov_calls", None),
            (harness, "lyapunov_cost", "sysmodel.lyapunov",
             "sysmodel.lyapunov_calls", None),
            (cli, "lyapunov_cost", "sysmodel.lyapunov",
             "sysmodel.lyapunov_calls", None),
            (cli, "critical_rate", "sysmodel.critical_rate", None, None),
            (harness, "critical_rate", "sysmodel.critical_rate", None, None),
            (cli, "simulate", "sysmodel.simulate", "sysmodel.simulate_steps",
             lambda args, _r: len(args[1])),
            (cli, "run_stability_experiment", "harness.experiment", None, None),
            (cli, "run_cost_experiment", "harness.experiment", None, None),
            (cli, "write_ledger_csvs", "harness.csv", None, None),
        ]
        for module, attr, layer, counter, amount in plan:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, layer, counter, amount))

    def call(self, request: tuple, fn, *args):
        """Run one request under a root span named ``cli``."""
        self.request = request
        return self._wrap(fn, "cli")(*args)

    def self_times(self) -> dict:
        """{(request, layer): self seconds} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _parent, req), covered in zip(self.spans, child):
            totals[(req, name)] += end - start - covered
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_pass_median(values: dict, requests: int, passes: int,
                    key: str) -> float:
    """Sum over requests of the per-request median over passes."""
    return sum(statistics.median(values.get(((r, p), key), 0.0)
                                 for p in range(passes))
               for r in range(requests))


def layer_metrics(tracer: Tracer, requests, passes: int) -> dict:
    """Per-layer metrics for one run, each per pass over the request list.

    Times (``_ms``) are self times: per request the median over passes,
    summed over requests. Counts are per pass (median over passes).
    """
    n = len(requests)
    times = tracer.self_times()
    ms = lambda layer: 1e3 * per_pass_median(times, n, passes, layer)
    counts = {key: per_pass_median(tracer.counts, n, passes, key)
              for key in ("channel.outcomes_loaded", "channel.outcomes_drawn",
                          "intervals.exact_calls", "intervals.closed_form_calls",
                          "harness.interval_evals", "verify.general_points",
                          "sysmodel.lyapunov_calls", "sysmodel.simulate_steps")}
    cells = sum(r.spec["trials"] * len(r.spec["n_grid"]) * len(r.spec["methods"])
                for r in requests if "trials" in r.spec)
    simulate_ms = ms("sysmodel.simulate")
    setup = [v for (req, name), v in times.items()
             if req[0] == "setup" and name == "channel.save"]
    return {
        "channel.load_ms": ms("channel.load"),
        "channel.outcomes_loaded": counts["channel.outcomes_loaded"],
        "channel.draw_ms": ms("channel.draw"),
        "channel.outcomes_drawn": counts["channel.outcomes_drawn"],
        "channel.save_ms": 1e3 * sum(setup),
        "intervals.exact_ms": ms("intervals.exact"),
        "intervals.exact_calls": counts["intervals.exact_calls"],
        "intervals.closed_form_ms": ms("intervals.closed_form"),
        "intervals.closed_form_calls": counts["intervals.closed_form_calls"],
        "harness.experiment_ms": ms("harness.experiment"),
        "harness.csv_ms": ms("harness.csv"),
        "harness.interval_evals": counts["harness.interval_evals"],
        "harness.evals_per_cell": (counts["harness.interval_evals"] / cells
                                   if cells else 0.0),
        "verify.decide_ms": ms("verify.decide"),
        "verify.general_ms": ms("verify.general"),
        "verify.general_points": counts["verify.general_points"],
        "sysmodel.kronecker_ms": ms("sysmodel.kronecker"),
        "sysmodel.lyapunov_ms": ms("sysmodel.lyapunov"),
        "sysmodel.lyapunov_calls": counts["sysmodel.lyapunov_calls"],
        "sysmodel.critical_rate_ms": ms("sysmodel.critical_rate"),
        "sysmodel.simulate_ms": simulate_ms,
        "sysmodel.simulate_steps_per_s": (
            1e3 * counts["sysmodel.simulate_steps"] / simulate_ms
            if simulate_ms else 0.0),
        "cli.self_ms": ms("cli"),
    }


def source_metrics(lv) -> dict:
    """Source lines (non-blank, non-comment) per module and public names."""
    src = os.path.dirname(lv.__file__)
    out = {}
    for module in ("channel", "intervals", "complexity", "sysmodel", "verify",
                   "harness", "cli"):
        with open(os.path.join(src, f"{module}.py"), encoding="utf-8") as fh:
            out[f"{module}.sloc"] = sum(
                1 for line in fh if line.strip() and not re.match(r"\s*#", line))
    out["api.public_names"] = len(lv.__all__)
    return out
