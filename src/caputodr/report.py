"""Error reports: pointwise tables, E_inf sweeps, log-log slope fits, CSV output.

Every CSV row is formatted by ``_rows``, as the ``repr`` of each field, so
files are byte-stable across runs and parse back to the identical doubles;
anything time- or host-dependent goes to a JSON sidecar instead.
"""

import contextlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _rows

# Tables of at least this many rows are formatted on every usable CPU.  On a 2-vCPU VM (a helper
# starts in ~16 ms), writing in-process -> with one helper took, median of 21: 10,000 rows 34.5 ->
# 39.1 ms (2 columns), 95.7 -> 72.7 ms (5); 20,000 rows 65.7 -> 56.2 ms (2), 181.7 -> 120.0 ms (5).
PARALLEL_ROWS = 20_000

# CPU time depends on these, so the sidecar records them (None when unset)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")

__all__ = [
    "SlopeFit",
    "fit_loglog",
    "write_pointwise_csv",
    "write_sweep_csv",
    "write_nodes_csv",
    "write_gnuplot_script",
    "write_meta",
]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log E against log N."""

    slope: float
    stderr: float
    excluded_smallest: bool = False


def _ols(x: np.ndarray, y: np.ndarray):
    xm = x - x.mean()
    slope = float(xm @ (y - y.mean()) / (xm @ xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt(resid @ resid / dof))
    return slope, stderr, resid


def fit_loglog(orders, errors) -> SlopeFit:
    """Fit log E_inf ~ slope * log N + c over a sweep.

    When the smallest-N point sits more than twice the fit's residual
    standard error off the line (a pre-asymptotic transient), it is dropped
    and the remaining points refitted; the exclusion is flagged on the
    result.
    """
    orders = np.asarray(orders, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(orders) < 3 or len(orders) != len(errors):
        raise ValueError("need at least 3 matching (N, E) pairs")
    if np.any(orders <= 0) or np.any(errors <= 0):
        raise ValueError("orders and errors must be positive for a log-log fit")
    x = np.log(orders)
    y = np.log(errors)
    slope, stderr, resid = _ols(x, y)
    if len(orders) > 3 and abs(resid[0]) > 2.0 * stderr:
        slope, stderr, _ = _ols(x[1:], y[1:])
        return SlopeFit(slope, stderr, excluded_smallest=True)
    return SlopeFit(slope, stderr)


def write_pointwise_csv(path, t, approx, exact=None) -> int:
    """Write the t,approx,exact,abs_err,rel_err table; return how many helpers formatted it.

    A table of at least PARALLEL_ROWS rows is cut into one slice per usable CPU, each of at least
    PARALLEL_ROWS // 2 rows: helpers running ``_rows.py`` format all but the first, which this
    process formats meanwhile, with the same bytes.
    """
    cols = np.array([t, approx] if exact is None else [t, approx, exact], dtype=float)
    slices = 1
    if cols.shape[1] >= PARALLEL_ROWS and sys.executable and os.path.isfile(_rows.__file__):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        slices = min(cpus, cols.shape[1] // max(PARALLEL_ROWS // 2, 1))
    bounds = [cols.shape[1] * i // slices for i in range(slices + 1)]
    helpers = []
    with open(path, "w") as fh:
        fh.write("t,approx,exact,abs_err,rel_err\n")
        try:
            if slices > 1:
                import subprocess

                command, pipe = [sys.executable, "-I", "-S", _rows.__file__, str(len(cols))], subprocess.PIPE
                for _ in range(slices - 1):
                    helpers.append(subprocess.Popen(command, stdin=pipe, stdout=pipe, stderr=pipe))
                for proc, lo, hi in zip(helpers, bounds[1:], bounds[2:]):
                    # a helper that died early is reported from its exit status below
                    with contextlib.suppress(BrokenPipeError), proc.stdin:
                        proc.stdin.write(cols[:, lo:hi].tobytes())
            fh.writelines(_rows.rows(*cols[:, : bounds[1]].tolist()))
            for proc, lo, hi in zip(helpers, bounds[1:], bounds[2:]):
                out, err = proc.stdout.read(), proc.stderr.read()  # a helper writes stderr only as it fails
                if proc.wait() != 0 or out.count(b"\n") != hi - lo:
                    tail = err.decode(errors="replace").strip()[-500:]
                    raise RuntimeError(f"pointwise row helper exited {proc.returncode} with {len(out)} bytes "
                                       f"for {hi - lo} rows: {tail!r}")
                fh.flush()
                fh.buffer.write(out)
        finally:
            for proc in helpers:
                with proc:  # closes its pipes and waits
                    proc.kill()
    return len(helpers)


def write_sweep_csv(path, orders, columns) -> None:
    """Write the N column of ``orders``, then one column per entry of ``columns`` (header -> values)."""
    table = {"N": [int(N) for N in orders]}
    table.update((name, [float(e) for e in values]) for name, values in columns.items())
    _rows.write_table(path, table)


def write_nodes_csv(path, rule) -> None:
    table = {"index": list(range(rule.order))}
    table.update(node=rule.nodes.tolist(), weight=rule.weights.tolist(), scaled_weight=rule.scaled_weights.tolist())
    _rows.write_table(path, table)


def _quoted(text) -> str:
    """``text`` as a gnuplot single-quoted string, in which ``''`` stands for ``'``."""
    return "'" + text.replace("'", "''") + "'"


def write_gnuplot_script(csv_path, columns, title, logscale=False) -> None:
    """Write ``x.gp`` beside ``x.csv``: gnuplot commands naming the CSV relative to the script.

    ``columns`` maps plot labels to 1-based CSV column indices.
    """
    lines = [
        "set datafile separator ','",
        f"set title {_quoted(title)}",
        "set key outside",
    ]
    if logscale:
        lines += ["set logscale xy", "set format y '%.1e'"]
    data = _quoted(os.path.basename(csv_path))
    plots = ", ".join(
        f"{data} using 1:{idx} with linespoints title {_quoted(label)}"
        for label, idx in columns.items()
    )
    lines.append(f"plot {plots}")
    with open(os.path.splitext(csv_path)[0] + ".gp", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meta(path, payload: dict) -> None:
    """JSON sidecar holding config echo, timestamp, versions and the BLAS thread settings."""
    import caputodr

    meta = dict(payload)
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    meta["blas_env"] = {var: os.environ.get(var) for var in BLAS_VARS}
    meta["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caputodr": getattr(caputodr, "__version__", "unknown"),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
