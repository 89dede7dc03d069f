"""Independent ground truth: closed-form Caputo derivatives and an L1 evaluator.

The L1 scheme is a product-integration discretization of the Caputo
integral.  It shares no machinery with the diffusive stepping, which is what
makes it a trustworthy cross-check; its global accuracy is O(h^(2-alpha)).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import specfun
from .diffusive import Signal, TimeGrid, _alpha_value, _finite, _sample

__all__ = [
    "TestCase",
    "exact_power",
    "exact_sin",
    "exact_bessel",
    "caputo_l1",
    "builtin_cases",
]


def exact_power(p: float, alpha, t):
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) * t^(p-alpha); raises if a finite t > 0 overflows it."""
    if not 0.0 < p < math.inf:  # written so that nan fails it
        raise ValueError(f"p must be positive and finite, got p={float(p)!r}")
    a = _alpha_value(alpha)
    try:
        ratio = specfun.gamma(p + 1.0) / specfun.gamma(p + 1.0 - a)
    except OverflowError:  # p > 170.6: the log of the ratio from Stirling's series, with no large term cancelling
        x, y = p + 1.0, p + 1.0 - a
        tail = lambda z: (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z  # log Gamma(z) past its leading Stirling terms
        ratio = math.exp(a * math.log(x) - (y - 0.5) * math.log1p(-a / x) - a + tail(x) - tail(y))
    times = specfun._nonnegative("t", t)
    with np.errstate(over="ignore", divide="ignore"):  # a pole at t = 0 is +inf; an overflow is refused below
        out = ratio * times ** (p - a)
    big = np.isinf(out) & (0.0 < times) & (times < math.inf)
    if big.any():
        raise ValueError(f"exact_power({p:g}, {a:g}) overflows at t={times[big].flat[0]:g}")
    return specfun._shaped(out, t)


def _bessel_profile(mu: float, t):
    """t^(mu/2) J_mu(2 sqrt(t)): the Bessel case's y (mu = nu), y' (nu - 1) and Caputo derivative (nu - alpha)."""
    t = specfun._nonnegative("t", t, (0.5 * specfun._MAX_ARG) ** 2)
    j = specfun.bessel_j(mu, 2.0 * np.sqrt(t))
    lost = (np.abs(j) < np.finfo(float).tiny) & (t > 1.0)  # J's digits lost to underflow, which t^(mu/2) magnifies
    if lost.any():
        raise ValueError(f"J_{mu:g}(2 sqrt(t)) underflows at t={t[lost].flat[0]:g}")
    with np.errstate(divide="ignore"):  # a pole at t = 0 (mu < 0) is +inf, as J_mu(0) is
        return t ** (0.5 * mu) * j


def exact_sin(alpha, t):
    """Caputo derivative of sin t, by its alternating series."""
    return specfun.caputo_sin_series(_alpha_value(alpha), t)


def exact_bessel(nu: float, alpha, t):
    """Caputo derivative of t^(nu/2) J_nu(2 sqrt(t)): t^((nu-a)/2) J_(nu-a)(2 sqrt(t))."""
    a = _alpha_value(alpha)
    if not -1.0 < nu - a < math.inf:  # written so that nan fails it
        raise ValueError(f"need nu finite and nu - alpha > -1, got nu={float(nu)!r}, alpha={a:g}")
    return specfun._shaped(_bessel_profile(nu - a, t), t)


def caputo_l1(signal: Signal, alpha, grid: TimeGrid) -> np.ndarray:
    """Classical L1 product-integration values of the Caputo derivative.

    result[k] = h^(-alpha)/Gamma(2-alpha) * sum_{m=1}^{k} b_m (y_{k-m+1} - y_{k-m})
    with b_m = m^(1-alpha) - (m-1)^(1-alpha); exact for linear signals, and
    O(h^(2-alpha)) accurate in general.  The same sum is taken by FFT, in
    O(n log n), independent of ``diffusive``.  A value that overflows raises
    ``ValueError`` naming the first and its time.
    """
    a = _alpha_value(alpha)
    times = grid.times()
    n = grid.count
    h = grid.step
    yv = _sample(signal.y, times)
    m = np.arange(1, n, dtype=float)
    b = m ** (1.0 - a) - (m - 1.0) ** (1.0 - a)
    size = 1 << (2 * n - 3).bit_length()  # past the full convolution's 2n - 3 terms
    out = np.zeros(n)
    # an overflow leaves inf or nan in the outputs, which are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        conv = np.fft.irfft(np.fft.rfft(b, size) * np.fft.rfft(np.diff(yv), size), size)[: n - 1]
        out[1:] = conv * h ** (-a) / specfun.gamma(2.0 - a)
    return _finite(out, times, "L1 derivative overflows to")


@dataclass(frozen=True)
class TestCase:
    """A signal with known fractional derivative, for error studies."""

    name: str
    signal: Signal
    alpha: float
    horizon: float
    exact: Callable


def _bessel_signal(nu: float) -> Signal:
    # d/dt [t^(nu/2) J_nu(2 sqrt t)] = t^((nu-1)/2) J_(nu-1)(2 sqrt t)
    return Signal(y=lambda t: _bessel_profile(nu, t), y_prime=lambda t: _bessel_profile(nu - 1.0, t))


def builtin_cases() -> dict:
    """The four benchmark cases: two powers, sine, and a Bessel profile."""
    cases = [
        TestCase(
            name="power16",
            signal=Signal(y=lambda t: t**1.6, y_prime=lambda t: 1.6 * t**0.6),
            alpha=0.4,
            horizon=3.0,
            exact=lambda t, a=0.4: exact_power(1.6, a, t),
        ),
        TestCase(
            name="cubic",
            signal=Signal(y=lambda t: t**3, y_prime=lambda t: 3.0 * t**2),
            alpha=0.6,
            horizon=1.0,
            exact=lambda t, a=0.6: exact_power(3.0, a, t),
        ),
        TestCase(
            name="sine",
            signal=Signal(y=np.sin, y_prime=np.cos),
            alpha=0.5,
            horizon=1.0,
            exact=lambda t, a=0.5: exact_sin(a, t),
        ),
        TestCase(
            name="bessel",
            signal=_bessel_signal(3.0),
            alpha=0.5,
            horizon=1.0,
            exact=lambda t, a=0.5: exact_bessel(3.0, a, t),
        ),
    ]
    return {c.name: c for c in cases}
