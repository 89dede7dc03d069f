import math

import mpmath
import numpy as np
import pytest

from caputodr import Signal, TimeGrid, caputo_l1
from caputodr.oracle import builtin_cases, exact_bessel, exact_power, exact_sin
from caputodr.specfun import caputo_sin_series

# mpmath, 40 digits
GAMMA_RATIO_26_22 = 1.2975325166662570343
INV_GAMMA_1_5 = 1.1283791670955125739
BESSEL_J25_2 = 0.22392453146891576584


class TestExactPower:
    def test_example_one_coefficient(self):
        assert exact_power(1.6, 0.4, 1.0) == pytest.approx(GAMMA_RATIO_26_22, rel=1e-13)

    def test_vanishes_at_origin(self):
        assert exact_power(3.0, 0.6, 0.0) == 0.0

    def test_linear_signal(self):
        assert exact_power(1.0, 0.5, 1.0) == pytest.approx(INV_GAMMA_1_5, rel=1e-13)

    def test_array_input(self):
        t = np.array([0.0, 0.5, 1.0])
        out = exact_power(2.0, 0.5, t)
        assert out.shape == t.shape
        assert out[0] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_power(-1.0, 0.5, 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_order_is_refused(self, p):
        # both returned nan
        with pytest.raises(ValueError, match=f"^p must be positive and finite, got p={p!r}$"):
            exact_power(p, 0.5, 1.0)

    @pytest.mark.parametrize("p", [171.5, 200.0, 1e4, 1e300])
    def test_order_past_gamma_overflow(self, p):
        # Gamma(p + 1) overflows: these raised OverflowError, and a difference of lgamma values keeps
        # no digit at p = 1e300, where the ratio is ~p^alpha
        with mpmath.workdps(340):
            ref = mpmath.gammaprod([mpmath.mpf(p) + 1], [mpmath.mpf(p) + mpmath.mpf(0.5)])
        assert exact_power(p, 0.5, 1.0) == pytest.approx(float(ref), rel=1e-12)

    def test_overflow_is_refused(self):
        # it returned inf with a RuntimeWarning
        with pytest.raises(ValueError, match=r"^exact_power\(3, 0\.6\) overflows at t=1e\+160$"):
            exact_power(3.0, 0.6, np.array([0.0, 1e100, 1e160, 2e160]))


class TestExactSin:
    def test_origin(self):
        assert exact_sin(0.5, 0.0) == 0.0

    def test_small_alpha_recovers_shifted_signal(self):
        # alpha -> 0 turns the derivative into y(t) - y(0)
        assert abs(exact_sin(1e-4, 1.0) - math.sin(1.0)) <= 1e-3

    def test_matches_series(self):
        assert exact_sin(0.5, 1.0) == pytest.approx(caputo_sin_series(0.5, 1.0), rel=1e-15)

    def test_array_against_mpmath(self):
        # sum_k (-1)^k t^(2k+1-a) / Gamma(2k+2-a)
        t = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
        got = exact_sin(0.5, t)
        assert got.shape == t.shape and got[0] == 0.0
        for ti, gi in zip(t[1:], got[1:]):
            ref = mpmath.nsum(
                lambda k: (-1) ** k * mpmath.mpf(ti) ** (2 * k + 0.5) / mpmath.gamma(2 * k + 1.5),
                [0, mpmath.inf],
            )
            assert gi == pytest.approx(float(ref), rel=1e-13)


class TestExactBessel:
    def test_origin(self):
        assert exact_bessel(3.0, 0.5, 0.0) == 0.0

    def test_at_one(self):
        assert exact_bessel(3.0, 0.5, 1.0) == pytest.approx(BESSEL_J25_2, rel=1e-12)

    def test_small_alpha_recovers_signal(self):
        case = builtin_cases()["bessel"]
        for t in (0.25, 0.5, 1.0):
            assert abs(exact_bessel(3.0, 1e-5, t) - case.signal.y(t)) <= 1e-4

    def test_array_against_mpmath(self):
        t = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
        got = exact_bessel(3.0, 0.5, t)
        assert got.shape == t.shape and got[0] == 0.0
        for ti, gi in zip(t[1:], got[1:]):
            ref = mpmath.mpf(ti) ** 1.25 * mpmath.besselj(2.5, 2 * mpmath.sqrt(ti))
            assert gi == pytest.approx(float(ref), rel=1e-12)

    def test_order_past_gamma_overflow(self):
        # Gamma(175.5) overflows: this raised OverflowError
        ref = mpmath.mpf(50) ** 87.25 * mpmath.besselj(174.5, 2 * mpmath.sqrt(50))
        assert exact_bessel(175.0, 0.5, 50.0) == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("nu,t", [(290.5, 30.0), (400.5, 56.0)])
    def test_underflowing_j_is_refused(self, nu, t):
        # J_(nu-alpha) underflows while t^((nu-alpha)/2) is huge: 0.0 and inf * 0 = nan (true values 3.5e-162, 2.6e-170)
        with pytest.raises(ValueError, match=rf"^J_{nu - 0.5:g}\(2 sqrt\(t\)\) underflows at t={t:g}$"):
            exact_bessel(nu, 0.5, np.array([1.0, t]))

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_bessel(-0.6, 0.5, 1.0)

    def test_array_with_negative_entry(self):
        with pytest.raises(ValueError, match="-1"):
            exact_bessel(3.0, 0.5, np.array([0.5, -1.0]))

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_order_is_refused(self, nu):
        # nan returned nan, inf returned 0.0
        with pytest.raises(ValueError, match=f"^need nu finite and nu - alpha > -1, got nu={nu!r}, alpha=0.5$"):
            exact_bessel(nu, 0.5, 1.0)


EXACT = [
    lambda t: exact_power(1.6, 0.4, t),
    lambda t: exact_sin(0.5, t),
    lambda t: exact_bessel(3.0, 0.5, t),
]


@pytest.mark.parametrize("exact", EXACT, ids=["power", "sin", "bessel"])
class TestExactArguments:
    """The three closed forms share specfun's argument contract."""

    @pytest.mark.parametrize("t", [-1.0, math.nan, np.array([0.5, -1.0]), np.array([math.nan, 0.5])])
    def test_negative_or_nan_time_raises(self, exact, t):
        with pytest.raises(ValueError, match="t must be non-negative"):
            exact(t)

    def test_scalar_time_gives_float(self, exact):
        assert type(exact(0.5)) is float and type(exact(np.float64(0.5))) is float

    def test_array_time_gives_array(self, exact):
        t = np.linspace(0.0, 1.0, 7).reshape(7, 1)
        out = exact(t)
        assert isinstance(out, np.ndarray) and out.shape == t.shape
        np.testing.assert_allclose(out[:, 0], [exact(float(v)) for v in t[:, 0]], rtol=1e-15, atol=0.0)


class TestCaputoL1:
    def test_nan_signal_raises(self):
        sig = Signal(y=lambda t: np.where(t < 0.5, t, np.nan))
        with pytest.raises(ValueError, match=r"<lambda> returned nan at t=0\.5$"):
            caputo_l1(sig, 0.5, TimeGrid(horizon=1.0, count=11))

    def test_overflowing_difference_raises(self):
        # 1e308 - -1e308 overflows; it used to warn and return nan
        sig = Signal.from_samples([0.0, 0.5, 1.0], [0.0, 1e308, -1e308])
        with pytest.raises(ValueError, match=r"^L1 derivative overflows to nan at t=0\.5$"):
            caputo_l1(sig, 0.5, TimeGrid(horizon=1.0, count=3))

    def test_constant_is_zero(self):
        grid = TimeGrid(horizon=1.0, count=101)
        sig = Signal(y=lambda t: np.full_like(np.asarray(t, float), 2.5))
        assert np.max(np.abs(caputo_l1(sig, 0.5, grid))) == 0.0

    def test_linear_signal_reproduced(self):
        # L1 is exact on linear signals; validates the weight normalization.
        grid = TimeGrid(horizon=1.0, count=10_001)
        sig = Signal(y=lambda t: np.asarray(t, float))
        out = caputo_l1(sig, 0.5, grid)
        assert abs(out[-1] - INV_GAMMA_1_5) <= 1e-4
        exact = exact_power(1.0, 0.5, grid.times())
        mask = grid.times() >= 0.1
        assert np.max(np.abs(out[mask] - exact[mask])) <= 1e-12

    def test_power16_large_grid(self):
        grid = TimeGrid(horizon=3.0, count=100_001)
        sig = Signal(y=lambda t: np.asarray(t, float) ** 1.6)
        out = caputo_l1(sig, 0.4, grid)
        want = exact_power(1.6, 0.4, 3.0)
        assert abs(out[-1] - want) / want <= 1e-3

    @pytest.mark.parametrize("alpha,t_eval,tol", [(0.5, 1.0, 1e-6), (0.9, 0.5, 1e-4)])
    def test_sin_series_against_l1(self, alpha, t_eval, tol):
        grid = TimeGrid(horizon=1.0, count=100_001)
        out = caputo_l1(Signal(y=np.sin), alpha, grid)
        idx = int(round(t_eval / grid.step))
        want = caputo_sin_series(alpha, t_eval)
        assert abs(out[idx] - want) <= tol * max(1.0, abs(want))

    def test_convergence_order(self):
        # error ratio across a grid doubling ~ 2^-(2-alpha) for y = t^3
        alpha = 0.6
        errs = []
        for n in (10_001, 20_001):
            grid = TimeGrid(horizon=1.0, count=n)
            sig = Signal(y=lambda t: np.asarray(t, float) ** 3)
            out = caputo_l1(sig, alpha, grid)
            exact = exact_power(3.0, alpha, grid.times())
            errs.append(np.max(np.abs(out - exact)))
        ratio = errs[1] / errs[0]
        expect = 2.0 ** -(2.0 - alpha)
        assert expect * 0.7 <= ratio <= expect * 1.3


def direct_l1(signal, alpha, grid):
    """The L1 sum by numpy's direct O(n^2) convolution: the reference for the FFT path."""
    n = grid.count
    m = np.arange(1, n, dtype=float)
    b = m ** (1.0 - alpha) - (m - 1.0) ** (1.0 - alpha)
    conv = np.convolve(b, np.diff(signal.y(grid.times())))[: n - 1]
    return np.concatenate(([0.0], conv * grid.step ** (-alpha) / math.gamma(2.0 - alpha)))


def random_polynomial(seed):
    rng = np.random.default_rng(seed)
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=rng.integers(2, 8)))
    return f"poly{seed}", Signal(y=poly), rng.uniform(0.05, 0.95), rng.uniform(0.5, 3.0)


L1_SIGNALS = [(c.name, c.signal, c.alpha, c.horizon) for c in builtin_cases().values()]
L1_SIGNALS += [random_polynomial(seed) for seed in range(4)]


@pytest.mark.parametrize("n", [2, 3, 101, 20_001])
@pytest.mark.parametrize("name,signal,alpha,horizon", L1_SIGNALS, ids=[s[0] for s in L1_SIGNALS])
def test_l1_fft_matches_direct_sum(n, name, signal, alpha, horizon):
    grid = TimeGrid(horizon=horizon, count=n)
    ref = direct_l1(signal, alpha, grid)
    got = caputo_l1(signal, alpha, grid)
    assert got.shape == ref.shape and got[0] == 0.0
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestBuiltinCases:
    def test_names_and_exact_at_origin(self):
        cases = builtin_cases()
        assert sorted(cases) == ["bessel", "cubic", "power16", "sine"]
        for case in cases.values():
            assert case.exact(0.0) == 0.0
            assert case.signal.y_prime is not None

    @pytest.mark.parametrize("name", ["power16", "cubic", "sine", "bessel"])
    def test_l1_agrees_with_closed_form(self, name):
        # reduced-n version of the full cross-validation gate
        case = builtin_cases()[name]
        grid = TimeGrid(horizon=case.horizon, count=20_001)
        out = caputo_l1(case.signal, case.alpha, grid)
        t = grid.times()
        exact = np.asarray(case.exact(t), dtype=float)
        mask = t >= case.horizon / 10.0
        rel = np.max(np.abs(out[mask] - exact[mask]) / np.abs(exact[mask]))
        assert rel <= 5e-3
