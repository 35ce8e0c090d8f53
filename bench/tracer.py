"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` rebinds each target function, in every library module
that holds a reference to it, to a wrapper that times the call.  Calls
nest on one stack, so a call's self time is its duration minus the
durations of the wrapped calls made inside it, and the self times of all
calls made under a root span add up to that root's duration.

Hot leaf functions are aggregated only (calls and self time); coarser
functions also leave a span (id, name, start, end, parent id), kept in
memory up to ``span_cap`` and written out when the run ends.  ``term``
is counted without timing, because a timed wrapper would cost more than
the function it measures.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, mode): "span" records spans, "agg" aggregates only,
# "count" only counts calls.
TARGETS = (
    ("kernels", "phi_eval", "span"),
    ("kernels", "phi_eval_d", "span"),
    ("kernels", "phi_eval_inf", "span"),
    ("kernels", "psd_spot_check", "span"),
    ("kernels", "_coefficient_prefix", "span"),
    ("sequences", "truncation_index", "span"),
    ("sequences", "weighted_tail_bound", "agg"),
    ("sequences", "term", "count"),
    ("transform", "circle_sequence", "span"),
    ("transform", "circle_coefficient", "agg"),
    ("transform", "reconstruct_error", "span"),
    ("transform", "derivative_at_zero_series", "span"),
    ("derivatives", "build_deriv_table", "span"),
    ("derivatives", "diagonal_closed_form", "agg"),
    ("asymptotics", "scaled_sum", "span"),
    ("asymptotics", "trace_convergence", "span"),
    ("asymptotics", "build_leading_table", "span"),
    ("exact", "binomial", "agg"),
    ("exact", "log_binomial", "agg"),
    ("exact", "falling_factorial", "agg"),
    ("verification", "run_suite", "span"),
    ("cli", "main", "span"),
)

EXACT_FUNCTIONS = ("exact.binomial", "exact.log_binomial", "exact.falling_factorial")


def _table_cells(max_order: int) -> int:
    return sum(level // 2 + 1 for level in range(max_order + 1))


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text.lower()).strip("_")


class Tracer:
    """Per-run span and counter store; install, run the tasks, uninstall."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._prefix_cache = None
        self._prefix_info = None

    # -- recording -------------------------------------------------------

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float, span: bool) -> None:
        self._stack.pop()
        duration = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration - frame[1]
        if span:
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[0], name, t0, t1, parent[0] if parent else None))
            else:
                self.spans_dropped += 1

    @contextmanager
    def root(self, name: str):
        """Root span around one benchmark task."""
        frame = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, t0, perf_counter(), True)

    def _wrap(self, name: str, fn, mode: str):
        counters = self.counters
        if mode == "count":
            key = name + ".calls"

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted
        after = self._after_hooks().get(name)
        span = mode == "span"

        def wrapper(*args, **kwargs):
            term_calls = counters["sequences.term.calls"]
            frame = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, perf_counter(), span)
            if after is not None:
                after(args, kwargs, result, counters["sequences.term.calls"] - term_calls)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hooks(self) -> dict:
        counters = self.counters
        sk_asym = sys.modules.get("spherekernel.asymptotics")

        def prefix(args, kwargs, result, _terms):
            counters["kernels.prefix_terms"] += len(result)

        def circle(args, kwargs, result, _terms):
            counters["transform.circle_terms"] += len(result.terms)

        def series(args, kwargs, result, terms):
            counters["transform.derivative_at_zero_series.terms"] += terms

        def table(args, kwargs, result, _terms):
            counters["derivatives.table_cells"] += _table_cells(result.max_order)

        def scaled(args, kwargs, result, _terms):
            j = args[0] if args else kwargs["j"]
            exact = j <= getattr(sk_asym, "EXACT_CROSSOVER", 0)
            counters["asymptotics.scaled_sum." + ("exact_calls" if exact else "log_calls")] += 1

        def suite(args, kwargs, result, _terms):
            for check in result:
                counters["verification." + _slug(check.name) + ".s"] += check.seconds

        return {
            "kernels._coefficient_prefix": prefix,
            "transform.circle_sequence": circle,
            "transform.derivative_at_zero_series": series,
            "derivatives.build_deriv_table": table,
            "asymptotics.scaled_sum": scaled,
            "verification.run_suite": suite,
        }

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded spherekernel module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "spherekernel" or n.startswith("spherekernel."))
        ]
        for mod_name, fn_name, mode in TARGETS:
            owner = sys.modules.get("spherekernel." + mod_name)
            original = getattr(owner, fn_name, None) if owner else None
            if original is None:
                continue
            if fn_name == "_coefficient_prefix" and hasattr(original, "cache_info"):
                self._prefix_cache = original
                self._prefix_info = original.cache_info()
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, mode)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        if self._prefix_cache is not None:
            before, after = self._prefix_info, self._prefix_cache.cache_info()
            self.counters["kernels.prefix_hits"] += after.hits - before.hits
            self.counters["kernels.prefix_misses"] += after.misses - before.misses
            self._prefix_cache = None

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, also the format a traced child process writes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent in self.spans:
                fh.write(json.dumps([span_id, name, t0, t1, parent]) + "\n")


def merge(into: dict, snap: dict) -> None:
    """Add one snapshot's totals into another."""
    for name, (calls, self_s) in snap["stats"].items():
        stat = into["stats"].setdefault(name, [0, 0.0])
        stat[0] += calls
        stat[1] += self_s
    for name, value in snap["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0.0) + value
    into["spans"] += snap["spans"]
    into["spans_dropped"] += snap["spans_dropped"]


def empty_snapshot() -> dict:
    return {"stats": {}, "counters": {}, "spans": 0, "spans_dropped": 0}
