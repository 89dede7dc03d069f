"""Seeded operation lists for the caputodr benchmark and the checks on their outputs.

A workload is a list of CLI operations.  Its inputs (fractional orders,
rule exponents and the external sample file) are drawn from the seed; the
program sees only the resulting flags and files.  Every operation carries a
check that parses the CSV it writes and compares it with references that are
computed here, once, before anything is timed:

- closed forms evaluated with ``math.gamma`` and numpy series written in this
  file (power, Bessel and the seeded sample signal);
- the L1 oracle (``caputodr.caputo_l1``) for the ``--input`` operation;
- a Laguerre three-term recurrence for the scaled Gauss-Laguerre weights;
- one library call per sweep operation that re-derives the smallest-N row of
  its E_inf table against the closed form above.

The accuracy bounds are 1.5x the largest value the package produced, when
the bounds were set, over the nominal orders +-0.01 (the seeded jitter is
+-0.005), so an accuracy loss in a fast path fails the check.
"""

import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

ALPHA_JITTER = 0.005
SWEEP_ORDERS = (10, 20, 40, 80, 160)
RULES_SWEEP = (40, 80, 160, 240, 300)
NODES_ORDER = 300
POINTWISE_N = 100_000
METHODS = ("YA", "CDR", "SDR", "ISDR")

# Largest accepted E_inf per row of each sweep table (rows follow the sweep
# orders, columns follow METHODS where there are several).
COMPARE_TOL = {
    "cubic-euler": [
        [0.22, 0.025, 1.1, 0.20],
        [0.13, 0.0090, 0.79, 0.17],
        [0.069, 0.0036, 0.60, 0.092],
        [0.040, 0.0016, 0.46, 0.048],
        [0.023, 0.00081, 0.35, 0.028],
    ],
    "power16-trapezoid": [
        [0.029, 0.13, 0.53, 1.3],
        [0.016, 0.047, 0.33, 0.53],
        [0.0065, 0.013, 0.22, 0.23],
        [0.0028, 0.0046, 0.14, 0.16],
        [0.0013, 0.0014, 0.092, 0.062],
    ],
}
CONVERGENCE_TOL = [0.22, 0.16, 0.062, 0.046, 0.038]
BESSEL_TOL = 1.2e-4
INPUT_L1_TOL = 0.070


class CheckFailed(Exception):
    """An operation's output is missing, malformed or inaccurate."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments (without --out) and its output check.

    ``check`` receives the text of ``<prefix><csv>`` and returns the
    operation's E_inf against the closed form, or None when the operation
    computes no derivative; it raises CheckFailed on a bad output.
    """

    name: str
    argv: List[str]
    csv: str
    check: Callable[[str], Optional[float]]


def _library(src: str):
    if src not in sys.path:
        sys.path.insert(0, src)
    import caputodr

    return caputodr


def _alpha(rng: random.Random, nominal: float) -> float:
    return nominal + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)


def _rows(text: str, header: str, count: int) -> List[List[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[0] if lines else ''!r}, expected {header!r}")
    if len(lines) - 1 != count:
        raise CheckFailed(f"{len(lines) - 1} data rows, expected {count}")
    return [line.split(",") for line in lines[1:]]


def _column(rows, index: int) -> np.ndarray:
    return np.array([float(r[index]) for r in rows])


def _power_exact(p: float, alpha: float, t: np.ndarray) -> np.ndarray:
    return math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha) * t ** (p - alpha)


def _bessel_exact(nu: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """t^((nu-a)/2) J_(nu-a)(2 sqrt t) = sum_m (-t)^m t^(nu-a) / (m! Gamma(m+nu-a+1))."""
    order = nu - alpha
    term = t**order / math.gamma(order + 1.0)
    total = term.copy()
    for m in range(1, 40):
        term = term * (-t) / (m * (m + order))
        total += term
    return total


def _grid(horizon: float, count: int) -> np.ndarray:
    return np.arange(count) * (horizon / (count - 1))


def _sweep_table(rows, orders) -> np.ndarray:
    got = [int(r[0]) for r in rows]
    if got != list(orders):
        raise CheckFailed(f"orders {got}, expected {list(orders)}")
    table = np.array([[float(x) for x in r[1:]] for r in rows])
    if not np.all(np.isfinite(table)) or np.any(table <= 0.0):
        raise CheckFailed("E_inf entries must be finite and positive")
    return table


def _check_bounds(table: np.ndarray, tol) -> None:
    tol = np.asarray(tol).reshape(table.shape)
    if np.any(table > tol):
        i = np.unravel_index(np.argmax(table / tol), table.shape)
        raise CheckFailed(f"E_inf {table[i]:.6g} above the bound {tol[i]:g} at row {i[0]}")


def _smallest_order_errors(lib, case: str, solver: str, alpha: float, n: int, methods, order, p):
    """E_inf of the library's derivative at one order, against the closed form here."""
    spec = lib.builtin_cases()[case]
    grid = lib.TimeGrid(horizon=spec.horizon, count=n)
    exact = _power_exact(p, alpha, grid.times())
    errs = []
    for tag in methods:
        approx = lib.caputo_derivative(lib.Method(tag), solver, alpha, order, grid, spec.signal)
        errs.append(float(np.max(np.abs(approx - exact))))
    return np.array(errs)


def _compare_op(lib, rng, case, p, nominal, solver) -> Op:
    alpha = _alpha(rng, nominal)
    key = f"{case}-{solver}"
    reference = _smallest_order_errors(lib, case, solver, alpha, 10_000, METHODS, SWEEP_ORDERS[0], p)

    def check(text):
        rows = _rows(text, "N," + ",".join(f"E_{m}" for m in METHODS), len(SWEEP_ORDERS))
        table = _sweep_table(rows, SWEEP_ORDERS)
        if np.max(np.abs(table[0] / reference - 1.0)) > 1e-9:
            raise CheckFailed(f"N={SWEEP_ORDERS[0]} row {table[0]} disagrees with {reference}")
        _check_bounds(table, COMPARE_TOL[key])
        return float(table.max())

    argv = ["compare", "--case", case, "--solver", solver, "--alpha", repr(alpha), "--n", "10000"]
    return Op(f"compare-{key}", argv, "_compare.csv", check)


def sweep_ops(lib, rng: random.Random, work: str) -> List[Op]:
    return [
        _compare_op(lib, rng, "cubic", 3.0, 0.6, "euler"),
        _compare_op(lib, rng, "power16", 1.6, 0.4, "trapezoid"),
    ]


def _write_samples(path: str, rng: random.Random):
    """Seeded smooth signal c1 t^p1 + c2 t^p2 on [0, 1], written with repr."""
    powers = (1.5 + rng.uniform(-0.02, 0.02), 2.5 + rng.uniform(-0.02, 0.02))
    coeffs = (1.0 + rng.uniform(-0.02, 0.02), -0.5 + rng.uniform(-0.02, 0.02))
    t = _grid(1.0, POINTWISE_N)
    y = coeffs[0] * t ** powers[0] + coeffs[1] * t ** powers[1]
    with open(path, "w") as fh:
        fh.write("t,y\n")
        fh.writelines(f"{ti!r},{yi!r}\n" for ti, yi in zip(t.tolist(), y.tolist()))

    def exact(alpha):
        return sum(c * _power_exact(p, alpha, t) for c, p in zip(coeffs, powers))

    return t, y, exact


def pointwise_ops(lib, rng: random.Random, work: str) -> List[Op]:
    header = "t,approx,exact,abs_err,rel_err"
    t = _grid(1.0, POINTWISE_N)
    alpha_b = _alpha(rng, 0.5)
    bessel = _bessel_exact(3.0, alpha_b, t)

    def check_bessel(text):
        rows = _rows(text, header, POINTWISE_N)
        if not np.array_equal(_column(rows, 0), t):
            raise CheckFailed("t column is not the uniform grid")
        if np.max(np.abs(_column(rows, 2) - bessel)) > 1e-12:
            raise CheckFailed("exact column disagrees with the Bessel closed form")
        err = float(np.max(np.abs(_column(rows, 1) - bessel)))
        if err > BESSEL_TOL:
            raise CheckFailed(f"E_inf {err:.6g} above {BESSEL_TOL:g}")
        return err

    samples = os.path.join(work, "samples.csv")
    alpha_i = _alpha(rng, 0.5)
    times, values, exact = _write_samples(samples, rng)
    grid = lib.TimeGrid(horizon=float(times[-1]), count=len(times))
    l1 = lib.caputo_l1(lib.Signal.from_samples(times, values), alpha_i, grid)
    closed = exact(alpha_i)

    def check_input(text):
        rows = _rows(text, header, POINTWISE_N)
        if not np.array_equal(_column(rows, 0), times):
            raise CheckFailed("t column differs from the input grid")
        if any(r[2:] != ["", "", ""] for r in rows):
            raise CheckFailed("exactness columns must be blank for sampled input")
        approx = _column(rows, 1)
        gap = float(np.max(np.abs(approx - l1)))
        if gap > INPUT_L1_TOL:
            raise CheckFailed(f"max |approx - L1| {gap:.6g} above {INPUT_L1_TOL:g}")
        return float(np.max(np.abs(approx - closed)))

    return [
        Op(
            "deriv-bessel",
            ["deriv", "--case", "bessel", "--alpha", repr(alpha_b), "--n", str(POINTWISE_N), "--N", "50"],
            "_pointwise.csv",
            check_bessel,
        ),
        Op(
            "deriv-input",
            ["deriv", "--input", samples, "--alpha", repr(alpha_i), "--method", "SDR"],
            "_pointwise.csv",
            check_input,
        ),
    ]


def _laguerre_log_abs(degree: int, a: float, z: np.ndarray) -> np.ndarray:
    """log |L_degree^(a)(z)| by the three-term recurrence, rescaled as it grows."""
    prev = np.ones_like(z)
    curr = 1.0 + a - z
    log_scale = np.zeros_like(z)
    for k in range(1, degree):
        prev, curr = curr, ((2 * k + 1 + a - z) * curr - (k + a) * prev) / (k + 1)
        scale = np.maximum(np.abs(curr), 1.0)
        prev = prev / scale
        curr = curr / scale
        log_scale += np.log(scale)
    return log_scale + np.log(np.abs(curr))


def _nodes_op(index: int, gamma: float) -> Op:
    n = NODES_ORDER

    def check(text):
        rows = _rows(text, "index,node,weight,scaled_weight", n)
        if [int(r[0]) for r in rows] != list(range(n)):
            raise CheckFailed("index column is not 0..N-1")
        z, w, scaled = (_column(rows, i) for i in (1, 2, 3))
        if z[0] <= 0.0 or np.any(np.diff(z) <= 0.0):
            raise CheckFailed("nodes are not positive and increasing")
        for k in range(4):
            moment = float(np.sum(w * z**k)) / math.gamma(gamma + k + 1.0)
            if abs(moment - 1.0) > 1e-12:
                raise CheckFailed(f"moment {k} off by {moment - 1.0:.3g}")
        # w_i = Gamma(N+g+1) / (N! z_i L'_N(z_i)^2), with L'_N = -L_(N-1)^(g+1).
        log_scaled = (
            math.lgamma(n + gamma + 1.0)
            - math.lgamma(n + 1.0)
            - np.log(z)
            - 2.0 * _laguerre_log_abs(n, gamma + 1.0, z)
            + z
        )
        rel = float(np.max(np.abs(np.expm1(np.log(scaled) - log_scaled))))
        if rel > 1e-9:
            raise CheckFailed(f"scaled weights off the recurrence by {rel:.3g}")
        return None

    return Op(f"nodes-{index}", ["nodes", "--N", str(n), "--gamma", repr(gamma)], "_nodes.csv", check)


def rules_ops(lib, rng: random.Random, work: str) -> List[Op]:
    ops = [_nodes_op(i, rng.uniform(-0.8, 0.9)) for i in range(4)]
    alpha = _alpha(rng, 0.4)
    reference = _smallest_order_errors(lib, "power16", "euler", alpha, 1000, ("ISDR",), RULES_SWEEP[0], 1.6)

    def check(text):
        table = _sweep_table(_rows(text, "N,E_inf", len(RULES_SWEEP)), RULES_SWEEP)
        if abs(table[0, 0] / reference[0] - 1.0) > 1e-9:
            raise CheckFailed(f"N={RULES_SWEEP[0]} E_inf {table[0, 0]:.17g} disagrees with {reference[0]:.17g}")
        _check_bounds(table, CONVERGENCE_TOL)
        return float(table.max())

    sweep = ",".join(str(N) for N in RULES_SWEEP)
    argv = ["convergence", "--case", "power16", "--method", "ISDR", "--alpha", repr(alpha)]
    argv += ["--n", "1000", "--sweep", sweep]
    ops.append(Op("convergence-power16-ISDR", argv, "_sweep.csv", check))
    return ops


WORKLOADS = {"sweep": sweep_ops, "pointwise": pointwise_ops, "rules": rules_ops}


def build(name: str, seed: int, src: str, work: str) -> List[Op]:
    """The operation list of workload ``name`` for ``seed``, with its references."""
    return WORKLOADS[name](_library(src), random.Random(f"{name}:{seed}"), work)
