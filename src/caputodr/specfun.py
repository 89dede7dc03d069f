"""Special functions backing the exact-derivative oracles.

``bessel_j`` and ``caputo_sin_series`` sum their ascending series in one
shared loop, elementwise over arrays: each element stops at its own term,
so an array call gives what calls on its elements one at a time give (up
to the last ulp of a power).  The series alternate, and past an argument
of about 15 cancellation eats their digits (at 20 the error is ~1e-9, at
60 it is ~1e7), so both refuse arguments above _MAX_ARG.  ``gamma`` is
the standard library's, with a ``ValueError`` at its poles; the series
need it once per call.  Everything here is plain double precision;
callers needing more digits should cross-check externally (the test suite
does).
"""

import math
from math import gamma

import numpy as np

__all__ = ["gamma", "bessel_j", "caputo_sin_series"]

# Largest argument the series accept.  Measured against mpmath on [0, 15],
# the absolute error stays below 1.3e-11 for J_nu (nu in [-0.9, 6]) and
# below 7.1e-11 for the sine derivative (alpha in [0.05, 0.99]).
_MAX_ARG = 15.0
_MAX_TERMS = 200  # series length before non-convergence is reported; up to _MAX_ARG both stop by term 37


def _nonnegative(name: str, value, limit: float = math.inf) -> np.ndarray:
    """``value`` as a float array; an element that is nan, below 0 or above ``limit`` raises, naming its value."""
    arr = np.asarray(value, dtype=float)
    for bad, rule in ((~(arr >= 0.0), "non-negative"), (arr > limit, f"at most {limit:g}")):
        if bad.any():
            raise ValueError(f"{name} must be {rule}, got {name}={arr[bad].flat[0]:g}")
    return arr


def _shaped(arr: np.ndarray, like):
    """``arr``, or a Python float when ``like`` is a scalar."""
    return arr if np.ndim(like) else float(arr)


def _series(x, term, tol, denom):
    """Sum series with terms t_m = -x t_(m-1) / denom(m) from t_0 = ``term``.

    Each term is added to the elements still in the boolean ``live`` mask;
    an element stays in it while a term exceeds ``tol`` of its running sum
    (a term that underflows to 0 ends it).  Returns the sums and ``live``,
    which marks the elements still unconverged after _MAX_TERMS terms.
    """
    total, live = term.copy(), np.ones(term.shape, dtype=bool)
    ratio, bound = np.empty_like(term), np.empty_like(term)  # reused: fresh arrays cost page faults
    for m in range(1, _MAX_TERMS):
        if not live.any():
            break
        term *= np.divide(x, -denom(m), out=ratio)
        np.add(total, term, out=total, where=live)
        np.multiply(np.abs(total, out=bound), tol, out=bound)
        live &= np.abs(term, out=ratio) > bound
    return total, live


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x) by its ascending series.

    ``x`` is a float or an array of any shape, each element in [0, 15];
    the result is a float or an array of that shape.  Needs nu > -1; at
    x = 0 it gives 1, 0 or +inf as nu is 0, above 0 or below 0.  Each
    element's series is summed until a term is at most 1e-16 of its sum.
    """
    if not -1.0 < nu < math.inf:  # written so that nan fails it
        raise ValueError(f"bessel_j requires a finite nu > -1, got nu={float(nu)!r}")
    xs = _nonnegative("x", x, _MAX_ARG)
    out = np.full(xs.shape, 1.0 if nu == 0.0 else math.inf if nu < 0.0 else 0.0)
    nonzero = xs != 0.0
    hh = 0.5 * xs[nonzero]
    try:
        scale = gamma(nu + 1.0)  # raises before hh**nu could overflow
        lead = hh**nu / scale
    except OverflowError:  # nu > 170.6
        lead = np.exp(nu * np.log(hh) - math.lgamma(nu + 1.0))
    sums, live = _series(hh * hh, lead, 1e-16, lambda m: m * (nu + m))
    if live.any():
        raise RuntimeError(f"bessel_j series did not converge for nu={nu:g}, x={xs[nonzero][live][0]:g}")
    out[nonzero] = sums
    return _shaped(out, x)


def caputo_sin_series(alpha: float, t):
    """Fractional derivative of sin at order ``alpha`` in (0, 1).

    Evaluates t^(1-alpha) * sum_k (-t^2)^k / Gamma(2k+2-alpha) elementwise
    over a float or an array ``t`` in [0, 15], truncating each element's
    series once a term is at most 1e-15 of its partial sum; t=0 gives 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha:g}")
    ts = _nonnegative("t", t, _MAX_ARG)
    term = np.full(ts.shape, 1.0 / gamma(2.0 - alpha))
    denom = lambda m: (2 * m - alpha) * (2 * m + 1.0 - alpha)
    sums, live = _series(ts * ts, term, 1e-15, denom)
    if live.any():
        raise RuntimeError("caputo_sin_series failed to converge")
    return _shaped(sums * ts ** (1.0 - alpha), t)
