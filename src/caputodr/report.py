"""Error reports: pointwise tables, E_inf sweeps, log-log slope fits, CSV output.

Every CSV field has the bytes of ``repr`` of its number, so files are byte-stable across runs and
parse back to the identical doubles; anything time- or host-dependent goes to a JSON sidecar instead.

The small tables are written one ``repr`` at a time. The pointwise table is formatted with numpy, in
blocks of BLOCK_ROWS rows, with the same bytes: the shortest decimal that reads back as the double,
the nearest such. For 10^E <= |x| < 10^(E+1), v = |x|·10^(16-E) lies in [1e16, 1e17); it is formed
as p + lo, the rounded product by a double-double 10^(16-E) and its error from Dekker's exact
product, to ~1e-14. The decimals that read back as x lie within h of v, half an ulp of x in these
units (0.55 < h < 11.2). As 2h < 100, a multiple of 100 (15 digits or fewer) in that interval is
repr's; failing one, the nearest multiple of 10 (16 digits) in it; failing that, the nearest
integer (17 digits). A power of two (whose interval below v is h/2 only), v within 2 of 1e16 or
200 of 1e17 (where the digits may belong to the next decade, or floor(log10) missed it), a
comparison within TOL of its threshold (a tie), nan, inf, a subnormal and |x| outside
[1e-100, 1e100) go to ``repr``.
"""

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__

# CPU time depends on these, so the sidecar records them (None when unset)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")
BLOCK_ROWS = 8_192
TOL = 1e-7  # in units of v; its error is ~1e-14 of them
_LO, _HI = -101, 100  # decimal exponents with a power-of-ten entry
_SLOTS = 13  # four-byte slots per field: sign and integer part 5, ".000" 1, fraction 5, "e-123" 2

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
    """Least-squares slope of log E against log N, with the slope's standard error."""

    slope: float
    stderr: float
    excluded_smallest: bool = False


def _ols(x: np.ndarray, y: np.ndarray):
    """Slope, its standard error s / sqrt(Sxx), the residual standard error s and the residuals."""
    xm = x - x.mean()
    sxx = xm @ xm
    slope = float(xm @ (y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    s = float(np.sqrt(resid @ resid / dof))
    return slope, float(s / np.sqrt(sxx)), s, resid


def fit_loglog(orders, errors) -> SlopeFit:
    """Fit log E_inf ~ slope * log N + c over a sweep of strictly increasing orders.

    When the smallest-N point sits more than twice the fit's residual
    standard error off the line (a pre-asymptotic transient), it is dropped
    and the remaining points refitted; the exclusion is flagged on the
    result.
    """
    orders = np.asarray(orders, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(orders) < 3 or len(orders) != len(errors):
        raise ValueError("need at least 3 matching (N, E) pairs")
    both = np.concatenate([orders, errors])
    if not np.all((0.0 < both) & (both < np.inf)):  # written so that nan fails it
        raise ValueError("orders and errors must be positive and finite for a log-log fit")
    if np.any(np.diff(orders) <= 0.0):  # the smallest-N exclusion drops orders[0]
        raise ValueError("orders must be strictly increasing")
    x = np.log(orders)
    y = np.log(errors)
    slope, stderr, s, resid = _ols(x, y)
    if len(orders) > 3 and abs(resid[0]) > 2.0 * s:
        slope, stderr, _, _ = _ols(x[1:], y[1:])
        return SlopeFit(slope, stderr, excluded_smallest=True)
    return SlopeFit(slope, stderr)


@functools.cache
def _tables():
    """The constant tables, built once per process from Python ints."""
    hi, lo = [], []
    for E in range(_LO, _HI + 1):
        num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
        hi.append(num / den)  # int division rounds correctly
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    m, e = np.frexp(hi)  # Veltkamp's split, of the mantissa so that it cannot overflow
    top = 134217729.0 * m - (134217729.0 * m - m)
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0"))
    quads = [digits]
    for marker in b"\0-":
        # the group holding a number's leading 1 (at row 1, 1x, 1xx or 1xxx) prints it as the marker
        forms = np.zeros_like(digits)
        for size in range(4):
            forms[10**size : 2 * 10**size, 3 - size] = marker
            forms[10**size : 2 * 10**size, 4 - size :] = digits[10**size : 2 * 10**size, 4 - size :]
        quads.append(forms)
    quads = np.concatenate(quads).view(np.uint32).ravel()
    dots = np.frombuffer(b"\0\0\0\0.\0\0\0.0\0\0.00\0.000", dtype=np.uint32)
    exps = b"".join((b"" if -4 <= E <= 15 else b"e%+03d" % E).ljust(8, b"\0") for E in range(_LO, _HI + 1))
    exps = np.frombuffer(exps, dtype=np.uint32).reshape(-1, 2).T.copy()
    return dict(
        hi=np.array(hi), hi_top=np.ldexp(top, e), hi_low=np.ldexp(m - top, e), lo=np.array(lo),
        pow10=np.array([10**i for i in range(19)], dtype=np.int64), quads=quads, dots=dots, exps=exps,
    )


def _scale(a, i, tab):
    """(p, lo): the rounded product of ``a`` by the power of ten of table row ``i``, and its error."""
    top, low = tab["hi_top"][i], tab["hi_low"][i]
    p = a * tab["hi"][i]
    c = 134217729.0 * a
    a_top = c - (c - a)
    a_low = a - a_top
    err = ((a_top * top - p) + a_top * low + a_low * top) + a_low * low
    return p, err + a * tab["lo"][i]


def _shortest(a, tab):
    """repr's digits of the positive normal doubles ``a`` of the table range.

    Returns (digits, count, E, slow): the digits as an integer of ``count`` digits, the first at
    10^E, and a mask of the values that must go to ``repr``.
    """
    m, e2 = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int64)
    p, lo = _scale(a, E - _LO, tab)
    h = np.ldexp(tab["hi"][E - _LO], e2 - 54)
    P = p.astype(np.int64)
    q100 = P // 100
    r100 = (P - 100 * q100).astype(float)
    tens = np.floor(r100 * 0.1)  # exact for 0 <= r100 < 100
    d100, d10 = r100 + lo, r100 - 10 * tens + lo
    up = d100 >= 50
    k10, k1 = np.rint(d10 * 0.1), np.rint(lo)
    dist100, dist10, dist1 = np.abs(d100 - 100 * up), np.abs(d10 - 10 * k10), np.abs(lo - k1)
    in100 = dist100 < h
    in10 = ~in100 & (dist10 < h)

    def near(dist, edge):
        return np.abs(dist - edge) <= TOL

    tie = near(dist100, h) | ~in100 & (near(dist10, h) | near(dist10, 5) | ~in10 & near(dist1, 0.5))
    # below a power of two the interval is h/2; near 1e16 or 1e17 the digits may be the decade's beside it
    slow = (m == 0.5) | (p < 1e16 + 2) | (p > 1e17 - 200) | tie
    # the nearest multiple of 100, of 10 or integer, over 100, 10 or 1: arithmetic, as the masks are random
    third = P + k1.astype(np.int64)
    first = q100 + up - third
    second = 10 * q100 + (tens + k10).astype(np.int64) - third
    D = third + in100 * first + in10 * second
    count = 17 - in10 - 2 * in100
    strip = np.flatnonzero(in100)
    if strip.size:
        d, c = D[strip], count[strip]
        for s in (8, 4, 2, 1):
            q = d // 10**s
            z = d == q * 10**s
            d = np.where(z, q, d)
            c -= s * z
        D[strip], count[strip] = d, c
    return D, count, E, slow


def _render(out, y, lead, quads) -> None:
    """Write 10^n plus an n-digit number, ``y``, four digits to a slot of ``out``, the last slot least
    significant; the leading 1 prints as the marker ``lead`` selects (10,000: NUL, 20,000: "-")."""
    for j in range(out.shape[1] - 1, -1, -1):
        q = y // 10_000
        out[:, j] = quads[y - q * 10_000 + (q == 0) * lead]
        y = q


def _fill(field, x, tab):
    """Write the fields of the doubles ``x`` into ``field`` (rows x _SLOTS); return those left for ``repr``."""
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-100) & (ax < 1e100)
    D, count, E, slow = _shortest(ax if fast.all() else np.where(fast, ax, 3.0), tab)  # 3.0: the digit 3
    D[zero] = 0
    pow10 = tab["pow10"]
    pos = (E >= -4) & (E <= 15)
    width = 1 + pos * (np.maximum(E, -1))  # digits before the point; 0 prints "0"
    shift = count - width
    left = np.maximum(shift, 0)
    head = D // pow10[left]
    frac_digits = left + (pos & (shift <= 0))  # "x.0" for a whole number
    frac = (frac_digits > 0) * (pow10[frac_digits] + D - head * pow10[left])
    quads = tab["quads"]
    _render(field[:, :5], pow10[width + (width == 0)] + head * pow10[np.maximum(-shift, 0)],
            10_000 + 10_000 * np.signbit(x), quads)
    field[:, 5] = tab["dots"][(frac_digits > 0) + (pos & (E < 0)) * (-E - 1)]
    _render(field[:, 6:11], frac, 10_000, quads)
    field[:, 11], field[:, 12] = (exps[E - _LO] for exps in tab["exps"])
    return np.flatnonzero(~fast & ~zero | slow)


def write_pointwise_csv(path, t, approx, exact=None) -> int:
    """Write the t,approx,exact,abs_err,rel_err table; return how many values went to ``repr``.

    Without ``exact`` the last three columns are blank; rel_err is blank wherever |exact| < 1e-14.
    """
    cols = [np.asarray(c, dtype=float) for c in ((t, approx) if exact is None else (t, approx, exact))]
    if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise ValueError("pointwise columns must be 1-d and of equal length")
    tab = _tables()
    size = 4 * _SLOTS  # bytes per field; byte 0 is NUL or the comma before it
    fields = 2 if exact is None else 5
    buf = np.empty((min(BLOCK_ROWS, len(cols[0])), size * fields + 4), dtype=np.uint8)
    buf[:, -4:] = np.frombuffer(b",,,\n" if exact is None else b"\n\0\0\0", dtype=np.uint8)
    slow = 0
    with open(path, "wb") as fh:
        fh.write(b"t,approx,exact,abs_err,rel_err\n")
        for start in range(0, len(cols[0]), BLOCK_ROWS):
            block = [c[start : start + BLOCK_ROWS] for c in cols]
            rows = buf[: len(block[0])]
            with np.errstate(all="ignore"):  # inf - inf and x / 0 are written as repr writes them
                if exact is not None:
                    abs_err = np.abs(block[1] - block[2])
                    blank = np.abs(block[2]) < 1e-14
                    block += [abs_err, abs_err / np.abs(block[2])]
                for i, x in enumerate(block):
                    at = size * i
                    left = _fill(rows.view(np.uint32)[:, i * _SLOTS : (i + 1) * _SLOTS], x, tab)
                    if i == 4:
                        left = left[~blank[left]]
                        rows[blank, at : at + size] = 0
                    if left.size:
                        slow += left.size
                        text = b"".join(repr(float(v)).encode().ljust(size - 1, b"\0") for v in x[left])
                        rows[left, at + 1 : at + size] = np.frombuffer(text, np.uint8).reshape(left.size, -1)
            rows[:, size : size * fields : size] = ord(",")
            fh.write(rows.tobytes().translate(None, b"\0"))
    return slow


def _write_table(path, columns) -> None:
    """Write the CSV of ``columns``, a map from header name to a list of Python ints or floats."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns.values(), strict=True))


def write_sweep_csv(path, orders, columns) -> None:
    """Write the N column of ``orders``, then one column per entry of ``columns`` (header -> values)."""
    table = {"N": [int(N) for N in orders]}
    table.update((name, [float(e) for e in values]) for name, values in columns.items())
    _write_table(path, table)


def write_nodes_csv(path, rule) -> None:
    table = {"index": list(range(rule.order))}
    table.update(node=rule.nodes.tolist(), weight=rule.weights.tolist(), scaled_weight=rule.scaled_weights.tolist())
    _write_table(path, table)


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
    meta = dict(payload)
    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    meta["blas_env"] = {var: os.environ.get(var) for var in BLAS_VARS}
    meta["versions"] = {
        "python": sys.version.split()[0],  # as platform.python_version() gives it
        "numpy": np.__version__,
        "caputodr": __version__,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
