"""Experiment harness: pointwise error tables, E_inf sweeps, rule inspection.

Every command writes deterministic CSV plus a gnuplot companion script;
timestamps and version stamps live in a ``.meta.json`` sidecar so repeated
runs with the same configuration produce byte-identical data files.
"""

import argparse
import gc
import os
import sys
import time
import warnings

# A host that loaded numpy is left alone: its BLAS settings and its collector are its own.
_fresh = "numpy" not in sys.modules
if _fresh:
    # OpenBLAS reads this once, as numpy loads it. At 4, its minimum, an idle worker thread sleeps
    # at once instead of spinning ~0.1 s of CPU after the import and after every threaded call;
    # the thread count is untouched. An explicit value wins.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    # The ~32,000 objects the imports leave live until exit, so collecting them is wasted work: 33
    # passes during the imports, and full passes at exit (~3 ms each) that took ~15 ms of teardown.
    _collecting = gc.isenabled()
    gc.disable()

import numpy as np  # noqa: E402

from . import diffusive, report
from .diffusive import Method, Signal, TimeGrid, caputo_derivative, max_error
from .oracle import builtin_cases
from .quadrature import gauss_laguerre

if _fresh:
    # the import-time heap goes to the permanent generation; what a command creates is collected
    gc.freeze()
    if _collecting:
        gc.enable()

DEFAULT_SWEEP = (10, 20, 40, 80, 160)


def theoretical_exponent(method: Method, alpha: float) -> float:
    """Quadrature-error exponent the E_inf(N) slope is compared against."""
    return method.weight_exponent(alpha) - 1.0


def _parse_sweep(text: str):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}") from exc
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("sweep must be a strictly increasing list")
    return values


def _number(text: str) -> float:
    """``text`` read as ``np.loadtxt`` reads a field: ``float`` alone also takes digit separators and non-ASCII digits."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def load_samples(path):
    """Read a two-column t,y CSV, naming any malformed row; ``Signal.from_samples`` checks the samples.

    One ``np.loadtxt`` call parses the rows.  A file it refuses is read again row by row, only to name
    the row it refuses: the file is never accepted, and only an empty table reaches the sample checks.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,y":
            raise ValueError(f"sample file must start with header 't,y', got {header!r}")
        start = fh.tell()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty table warns
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] == 2:
                return tuple(np.ascontiguousarray(rows.T))
        except (ValueError, UserWarning):
            pass
        fh.seek(start)
        lines = [line for line in fh if line != "\n"]  # np.loadtxt skips empty lines, not blank ones
    for row, line in enumerate(lines, 1):
        try:
            a, b = line.split(",")
            _number(a), _number(b)
        except ValueError as exc:
            raise ValueError(f"sample row {row}: {exc}") from None
    if lines:  # not reached while _number is no more lenient than np.loadtxt; refused if it ever is
        raise ValueError("np.loadtxt refuses the sample file, though each row reads as two numbers")
    return np.empty(0), np.empty(0)


def _phase_check(h: float, order: int, alpha: float, methods) -> None:
    """Warn once when rate(z_max)*h, the top node's turn (YA: decay) per step, is >= 1 for any of ``methods``.

    The states stay stable (the semi-implicit Euler propagator has det A = 1);
    the warning is that the step does not resolve the top nodes.  They are read
    off the cached rules, which the run has built: it is called after the
    stepping, so that a step that refuses prints only its error.
    """
    turns = {m: h * m.rate(float(diffusive._cached_rule(order, m.weight_exponent(alpha)).nodes[-1])) for m in methods}
    method = max(turns, key=turns.get)
    if turns[method] >= 1.0:
        name = "h*z_max^2" if method.rate(2.0) == 4.0 else "h*z_max"  # the rate is z^2 or z
        print(
            f"warning: {name} = {turns[method]:.3g} >= 1 ({method.value}, N={order}): the step "
            "does not resolve the phase or decay of the top nodes; proceeding, quadrature "
            "error usually dominates",
            file=sys.stderr,
        )


def _resolve_problem(args):
    """Turn --case/--input flags into (label, signal, alpha, grid, times, exact values or None).

    The times are the file's own with --input; the stepping runs on the uniform grid they were checked against.
    """
    if args.input is not None:
        if args.case is not None:
            raise ValueError("--case and --input are mutually exclusive")
        if args.alpha is None:
            raise ValueError("--input mode requires --alpha")
        if args.n is not None or args.T is not None:
            raise ValueError("--n and --T do not apply to --input: the file sets the grid")
        times, values = load_samples(args.input)
        signal = Signal.from_samples(times, values)
        grid = TimeGrid(horizon=float(times[-1]), count=len(times))
        return args.input, signal, args.alpha, grid, times, None
    cases = builtin_cases()
    name = args.case if args.case is not None else "cubic"
    if name not in cases:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(cases)}")
    case = cases[name]
    alpha = case.alpha if args.alpha is None else args.alpha
    horizon = case.horizon if args.T is None else args.T
    args.n = 10_000 if args.n is None else args.n  # recorded in the meta
    grid = TimeGrid(horizon=horizon, count=args.n)
    # the exact reference refuses a horizon past its series' range: fail before stepping
    times = grid.times()
    exact = np.asarray(case.exact(times, alpha), dtype=float)
    return name, case.signal, alpha, grid, times, exact


def _write_meta(args, **extra) -> None:
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    payload.update(extra)
    report.write_meta(f"{args.out}.meta.json", payload)


def cmd_deriv(args) -> None:
    label, signal, alpha, grid, t, exact_vals = _resolve_problem(args)
    method = Method(args.method)
    approx = caputo_derivative(method, args.solver, alpha, args.N, grid, signal)
    _phase_check(grid.step, args.N, alpha, (method,))

    csv_path = f"{args.out}_pointwise.csv"
    start = time.perf_counter()
    csv_repr_fallbacks = report.write_pointwise_csv(csv_path, t, approx, exact_vals)
    csv_write_s = time.perf_counter() - start
    report.write_gnuplot_script(
        csv_path,
        {"abs_err": 4, "rel_err": 5} if exact_vals is not None else {"approx": 2},
        f"{label} {method.value} {args.solver} N={args.N}",
    )
    e_inf = None if exact_vals is None else max_error(approx, exact_vals)
    _write_meta(args, label=label, alpha=alpha, e_inf=e_inf, csv_repr_fallbacks=csv_repr_fallbacks,
                csv_write_s=csv_write_s)


def _sweep(args, methods):
    """E_inf of each method at each order of ``args.sweep``, against the case's exact reference.

    Returns (label, alpha, errors), with ``errors`` keyed by method tag.
    """
    if len(args.sweep) < 4:
        raise ValueError(f"{args.command} needs a sweep of at least 4 orders")
    label, signal, alpha, grid, _, exact_vals = _resolve_problem(args)
    if exact_vals is None:
        raise ValueError(f"{args.command} requires a built-in case (an exact reference)")
    errors = {}
    for method in methods:
        errors[method.value] = []
        for order in args.sweep:
            approx = caputo_derivative(method, args.solver, alpha, order, grid, signal)
            errors[method.value].append(max_error(approx, exact_vals))
    # z_max grows with the order: one warning, at the largest
    _phase_check(grid.step, max(args.sweep), alpha, methods)
    return label, alpha, errors


def cmd_convergence(args) -> None:
    method = Method(args.method)
    label, alpha, errors = _sweep(args, (method,))
    fit = report.fit_loglog(args.sweep, errors[method.value])

    csv_path = f"{args.out}_sweep.csv"
    report.write_sweep_csv(csv_path, args.sweep, {"E_inf": errors[method.value]})
    report.write_gnuplot_script(
        csv_path,
        {"E_inf": 2},
        f"{label} {method.value} {args.solver} E_inf(N)",
        logscale=True,
    )
    _write_meta(
        args,
        label=label,
        alpha=alpha,
        slope=fit.slope,
        slope_stderr=fit.stderr,
        excluded_smallest=fit.excluded_smallest,
        theoretical_exponent=theoretical_exponent(method, alpha),
    )


def cmd_compare(args) -> None:
    label, alpha, errors = _sweep(args, (Method.YA, Method.CDR, Method.SDR, Method.ISDR))
    slopes = {tag: report.fit_loglog(args.sweep, e).slope for tag, e in errors.items()}

    csv_path = f"{args.out}_compare.csv"
    report.write_sweep_csv(csv_path, args.sweep, {f"E_{tag}": e for tag, e in errors.items()})
    report.write_gnuplot_script(
        csv_path,
        {tag: i + 2 for i, tag in enumerate(errors)},
        f"{label} four-method E_inf(N), {args.solver}",
        logscale=True,
    )
    _write_meta(args, label=label, alpha=alpha, slopes=slopes)


def cmd_nodes(args) -> None:
    rule = gauss_laguerre(args.N, args.gamma)
    if args.out is None:
        # a duplicate of fd 1 writes at its offset; reopening /dev/stdout would truncate a redirected file
        report.write_nodes_csv(os.dup(1), rule)
        return
    report.write_nodes_csv(f"{args.out}_nodes.csv", rule)
    _write_meta(args)


def _add_run_flags(p, sweep: bool):
    p.add_argument("--solver", choices=("euler", "trapezoid"), default="euler")
    p.add_argument("--alpha", type=float, default=None, help="fractional order in (0,1)")
    p.add_argument("--n", type=int, default=None, help="number of time grid points (default 10000)")
    p.add_argument("--T", type=float, default=None, help="time horizon (case default)")
    p.add_argument("--case", default=None, help="built-in case name (default: cubic)")
    p.add_argument("--input", default=None, help="external t,y sample CSV (uniform grid)")
    p.add_argument("--out", required=True, help="output file prefix")
    if sweep:
        p.add_argument("--sweep", type=_parse_sweep, default=list(DEFAULT_SWEEP))
    else:
        p.add_argument("--N", type=int, default=50, help="quadrature order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caputodr",
        description="Caputo fractional derivatives via diffusive representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deriv", help="pointwise derivative table for one method")
    p.add_argument("--method", choices=[m.value for m in Method], default="CDR")
    _add_run_flags(p, sweep=False)
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("convergence", help="E_inf(N) sweep and fitted slope")
    p.add_argument("--method", choices=[m.value for m in Method], default="CDR")
    _add_run_flags(p, sweep=True)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("compare", help="E_inf(N) sweep for all four methods")
    _add_run_flags(p, sweep=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("nodes", help="dump a Gauss-Laguerre rule as CSV")
    p.add_argument("--N", type=int, required=True, help="quadrature order")
    p.add_argument("--gamma", type=float, required=True, help="weight exponent, > -1")
    p.add_argument("--out", default=None, help="output prefix (stdout when omitted)")
    p.set_defaults(func=cmd_nodes)

    return parser


def _join_negative_values(argv):
    """``argv`` with each token that starts with "-" and reads as a float joined to the option before it.

    argparse takes ``-5e-1`` or ``-inf`` for an option; as ``--gamma=-5e-1`` it reaches the value checks.
    """
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
