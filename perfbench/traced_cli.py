"""Run the caputodr CLI in this process with per-layer spans and counters.

Usage: python traced_cli.py TRACE_JSON CLI_ARG...

The package is imported first and its public calls are then wrapped from
outside, so the program itself is unchanged.  Names are patched where the
caller looks them up at call time:

- ``diffusive._cached_rule`` is the rule constructor ``caputo_derivative``
  calls.  It is an ``lru_cache`` built around ``gauss_laguerre`` when the
  module is imported, so patching ``quadrature.gauss_laguerre`` afterwards
  would see nothing; the wrapper goes around the cached name instead, and
  rule constructions are read from its ``cache_info().misses``.
- ``cli.gauss_laguerre`` and ``cli.caputo_derivative`` are the names the
  ``cli`` module bound with ``from ... import``.
- ``diffusive._sample`` evaluates the signal callables on the grid; the
  callables it receives are counted (calls and points) through a proxy.
- ``specfun.*`` and ``oracle.exact_*`` are looked up as module attributes
  by their callers, so they are patched on their own modules.

A layer's self time is the duration of its spans minus that of the spans
they enclose.  Self times and counters are kept in memory and written to
TRACE_JSON on exit.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []

    def span(self, layer, fn, after=None):
        """Wrap ``fn`` so its calls are timed as ``layer``; ``after`` sees each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in enclosed spans
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return None
        setattr(module, attr, make(original))
        return original


def install(tracer, cli, diffusive, oracle, report, specfun):
    """Wrap the layer boundaries; returns a callable giving the rule-cache statistics."""
    patch = tracer.patch
    counts = tracer.counts

    cached_rule = patch(diffusive, "_cached_rule", lambda f: tracer.span("quadrature", f))

    def direct_rule(args, kwargs, result):
        counts["quadrature.direct_builds"] += 1

    patch(cli, "gauss_laguerre", lambda f: tracer.span("quadrature", f, direct_rule))

    def stepped(fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            counts["diffusive.calls"] += 1
            counts["diffusive.node_steps"] += (bound["grid"].count - 1) * bound["order"]

        return tracer.span("diffusive", fn, after)

    patch(cli, "caputo_derivative", stepped)

    def counted_callable(func):
        def proxy(t):
            counts["signal.callable_calls"] += 1
            counts["signal.points"] += int(np.size(t))
            return func(t)

        return proxy

    def sampled(fn):
        def sample(func, times):
            return fn(counted_callable(func), times)

        return tracer.span("signal", sample)

    patch(diffusive, "_sample", sampled)

    for name in ("bessel_j", "caputo_sin_series", "gamma"):
        patch(specfun, name, functools.partial(tracer.counter, f"specfun.{name}.calls"))

    def exact_points(args, kwargs, result):
        counts["oracle.exact_points"] += int(np.size(result))

    for name in ("exact_power", "exact_sin", "exact_bessel"):
        patch(oracle, name, lambda f: tracer.span("oracle", f, exact_points))

    def csv_writer(row_count):
        def after(args, kwargs, result):
            counts["report.rows"] += row_count(args)
            counts["report.bytes_written"] += os.path.getsize(args[0])

        return lambda f: tracer.span("report", f, after)

    patch(report, "write_pointwise_csv", csv_writer(lambda a: len(a[1])))
    patch(report, "write_sweep_csv", csv_writer(lambda a: len(a[1])))
    patch(report, "write_compare_csv", csv_writer(lambda a: len(a[1])))
    patch(report, "write_nodes_csv", csv_writer(lambda a: a[1].order))
    for name in ("write_gnuplot_script", "write_meta"):
        patch(report, name, lambda f: tracer.span("report", f))

    patch(cli, "load_samples", lambda f: tracer.span("cli.load", f))

    def cache_stats():
        if cached_rule is None or not hasattr(cached_rule, "cache_info"):
            return {"hits": 0, "misses": 0}
        info = cached_rule.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    return cache_stats


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    from caputodr import cli, diffusive, oracle, report, specfun

    tracer = Tracer()
    cache_stats = install(tracer, cli, diffusive, oracle, report, specfun)
    status = 1
    try:
        status = cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "self_s": tracer.self_s,
                    "counts": tracer.counts,
                    "rule_cache": cache_stats(),
                    "missing_hooks": tracer.missing,
                },
                fh,
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
