"""Error reports: pointwise tables, E_inf sweeps, log-log slope fits, CSV output.

All numeric CSV fields are written with ``repr(float(x))`` so files are
byte-stable across runs and parse back to the identical doubles; anything
time- or host-dependent goes to a JSON sidecar instead.
"""

import json
import platform
import time
from dataclasses import dataclass

import numpy as np

REL_ERR_FLOOR = 1e-14

__all__ = [
    "SlopeFit",
    "fit_loglog",
    "write_pointwise_csv",
    "write_sweep_csv",
    "write_compare_csv",
    "write_nodes_csv",
    "write_gnuplot_script",
    "write_meta",
]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log E against log N."""

    slope: float
    intercept: float
    stderr: float
    excluded_smallest: bool = False


def _ols(x: np.ndarray, y: np.ndarray):
    xm = x - x.mean()
    slope = float(xm @ (y - y.mean()) / (xm @ xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt(resid @ resid / dof))
    return slope, intercept, stderr, resid


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
    slope, intercept, stderr, resid = _ols(x, y)
    if len(orders) > 3 and abs(resid[0]) > 2.0 * stderr:
        slope, intercept, stderr, _ = _ols(x[1:], y[1:])
        return SlopeFit(slope, intercept, stderr, excluded_smallest=True)
    return SlopeFit(slope, intercept, stderr)


def _fmt(x) -> str:
    return repr(float(x))


def write_pointwise_csv(path, t, approx, exact=None) -> None:
    """Write the t,approx,exact,abs_err,rel_err table.

    The exactness columns are left blank when no reference is available
    (external sample input); rel_err is blank wherever |exact| < 1e-14.
    Rows are formatted from Python floats, which repr faster than numpy scalars.
    """
    t = np.asarray(t, dtype=float).tolist()
    approx = np.asarray(approx, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write("t,approx,exact,abs_err,rel_err\n")
        if exact is None:
            fh.writelines(f"{ti!r},{ai!r},,,\n" for ti, ai in zip(t, approx))
            return
        for ti, ai, ei in zip(t, approx, np.asarray(exact, dtype=float).tolist()):
            ae = abs(ai - ei)
            rel = "" if abs(ei) < REL_ERR_FLOOR else repr(ae / abs(ei))
            fh.write(f"{ti!r},{ai!r},{ei!r},{ae!r},{rel}\n")


def write_sweep_csv(path, orders, e_inf) -> None:
    with open(path, "w") as fh:
        fh.write("N,E_inf\n")
        for N, e in zip(orders, e_inf):
            fh.write(f"{int(N)},{_fmt(e)}\n")


def write_compare_csv(path, orders, errors_by_method) -> None:
    """Merged sweep table, one E_inf column per method tag."""
    tags = list(errors_by_method)
    with open(path, "w") as fh:
        fh.write("N," + ",".join(f"E_{tag}" for tag in tags) + "\n")
        for i, N in enumerate(orders):
            row = ",".join(_fmt(errors_by_method[tag][i]) for tag in tags)
            fh.write(f"{int(N)},{row}\n")


def write_nodes_csv(path, rule) -> None:
    with open(path, "w") as fh:
        fh.write("index,node,weight,scaled_weight\n")
        for i in range(rule.order):
            fh.write(
                f"{i},{_fmt(rule.nodes[i])},{_fmt(rule.weights[i])},{_fmt(rule.scaled_weights[i])}\n"
            )


def write_gnuplot_script(path, csv_path, columns, title, logscale=False) -> None:
    """Companion gnuplot commands referencing a CSV by relative name.

    ``columns`` maps plot labels to 1-based CSV column indices.
    """
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
    ]
    if logscale:
        lines += ["set logscale xy", "set format y '%.1e'"]
    plots = ", ".join(
        f"'{csv_path}' using 1:{idx} with linespoints title '{label}'"
        for label, idx in columns.items()
    )
    lines.append(f"plot {plots}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meta(path, payload: dict) -> None:
    """JSON sidecar holding config echo, timestamp, and versions."""
    import caputodr

    meta = dict(payload)
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    meta["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caputodr": getattr(caputodr, "__version__", "unknown"),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
