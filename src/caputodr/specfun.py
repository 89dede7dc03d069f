"""Special functions backing the exact-derivative oracles.

``bessel_j`` and ``caputo_sin_series`` work elementwise over arrays: each
element runs its own series and stops at its own term, so an array call
gives what calls on its elements one at a time give (up to the last ulp
of a power).  ``gamma`` is scalar; the series need it once per call.
Everything here is plain double precision; callers needing more digits
should cross-check externally (the test suite does).
"""

import math

import numpy as np

__all__ = ["gamma", "bessel_j", "caputo_sin_series"]

# Lanczos approximation, g = 7, 9 coefficients.  Relative error is a few
# ulps over the positive axis, comfortably below 1e-13 on [0.1, 30].
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(x: float) -> float:
    """Euler's Gamma function for real ``x``.

    Raises ``ValueError`` at the poles (zero and the negative integers).
    Arguments below 0.5 go through the reflection formula.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma has a pole at x={x:g}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    w = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    # t**(w+0.5) alone overflows near the top of the double range; split the
    # power so each factor stays representable.
    p = t ** (0.5 * w + 0.25)
    return _SQRT_TWO_PI * acc * p * (p * math.exp(-t))


def _nonnegative(name: str, value) -> np.ndarray:
    """``value`` as a float array; a negative element raises, naming its value."""
    arr = np.asarray(value, dtype=float)
    bad = arr < 0.0
    if bad.any():
        raise ValueError(f"{name} must be non-negative, got {name}={arr[bad].flat[0]:g}")
    return arr


def _shaped(arr: np.ndarray, like):
    """``arr``, or a Python float when ``like`` is a scalar."""
    return arr if np.ndim(like) else float(arr)


def bessel_j(nu: float, x, max_terms: int = 200):
    """Bessel function of the first kind J_nu(x) by its ascending series.

    ``x`` is a float or an array of any shape; the result is a float or an
    array of that shape.  Intended for nu > -1 and small non-negative x
    (each element's series is summed until a term drops below 1e-16 of its
    running sum, which is fast and accurate for x up to roughly 10; this
    library only needs x in [0, 4]).
    """
    if nu <= -1.0:
        raise ValueError(f"bessel_j requires nu > -1, got nu={nu:g}")
    xs = _nonnegative("x", x)
    out = np.full(xs.shape, 1.0 if nu == 0.0 else 0.0)
    flat = out.reshape(-1)
    live = np.flatnonzero(xs)
    hh = 0.5 * xs.reshape(-1)[live]
    term = hh**nu / gamma(nu + 1.0)
    total = term.copy()
    hh *= hh
    for m in range(1, max_terms):
        if not live.size:
            break
        term *= -hh / (m * (nu + m))
        total += term
        done = np.abs(term) < 1e-16 * np.abs(total) + 1e-300
        flat[live[done]] = total[done]
        keep = ~done
        live, hh, term, total = live[keep], hh[keep], term[keep], total[keep]
    if live.size:
        bad = xs.reshape(-1)[live[0]]
        raise RuntimeError(f"bessel_j series did not converge for nu={nu:g}, x={bad:g}")
    return _shaped(out, x)


def caputo_sin_series(alpha: float, t, tol: float = 1e-15):
    """Fractional derivative of sin at order ``alpha`` in (0, 1).

    Evaluates t^(1-alpha) * sum_k (-t^2)^k / Gamma(2k+2-alpha) elementwise
    over a float or an array ``t``, truncating each element's series once a
    term falls below ``tol`` of its partial sum (with an absolute floor);
    t=0 gives 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha:g}")
    ts = _nonnegative("t", t)
    out = np.zeros(ts.shape)
    flat = out.reshape(-1)
    nonzero = live = np.flatnonzero(ts)
    tt = ts.reshape(-1)[live]
    tt *= tt
    term = np.full(live.size, 1.0 / gamma(2.0 - alpha))
    total = term.copy()
    k = 0
    while True:
        done = np.abs(term) < tol * np.abs(total) + 1e-300
        flat[live[done]] = total[done]
        keep = ~done
        live, tt, term, total = live[keep], tt[keep], term[keep], total[keep]
        if not live.size:
            break
        term *= -tt / ((2 * k + 2.0 - alpha) * (2 * k + 3.0 - alpha))
        total += term
        k += 1
        if k > 1000:
            raise RuntimeError("caputo_sin_series failed to converge")
    flat[nonzero] *= ts.reshape(-1)[nonzero] ** (1.0 - alpha)
    return _shaped(out, t)
