import math

import mpmath
import numpy as np
import pytest

from caputodr import specfun

# Reference decimals below were produced with mpmath at 40 digits.
GAMMA_2_6 = 1.4296245588603045137
BESSEL_J3_2 = 0.1289432494744020511
CAPUTO_SIN_HALF_AT_1 = 0.84605678672415291429


class TestGamma:
    def test_one(self):
        assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half(self):
        assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_2_6(self):
        assert specfun.gamma(2.6) == pytest.approx(GAMMA_2_6, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(ValueError):
            specfun.gamma(x)

    def test_factorials(self):
        for n in range(1, 16):
            assert specfun.gamma(n + 1.0) == pytest.approx(math.factorial(n), rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.1, 20.0, size=500):
            assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)

    def test_against_mpmath_grid(self):
        for x in np.linspace(0.1, 30.0, 120):
            ref = float(mpmath.gamma(x))
            assert specfun.gamma(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_reflection_negative(self):
        ref = float(mpmath.gamma(-0.3))
        assert specfun.gamma(-0.3) == pytest.approx(ref, rel=1e-13)


class TestBesselJ:
    def test_zero_argument(self):
        assert specfun.bessel_j(3.0, 0.0) == 0.0
        assert specfun.bessel_j(0.0, 0.0) == 1.0

    def test_negative_order_at_zero_is_infinite(self):
        assert specfun.bessel_j(-0.5, 0.0) == math.inf == float(mpmath.besselj(-0.5, 0.0))

    def test_j3_at_2(self):
        assert specfun.bessel_j(3.0, 2.0) == pytest.approx(BESSEL_J3_2, rel=1e-13)

    def test_against_mpmath(self):
        for nu in (0.0, 0.5, 2.5, 3.0):
            for x in (0.1, 1.0, 2.7, 4.0):
                ref = float(mpmath.besselj(nu, x))
                assert specfun.bessel_j(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(3.0, -0.1)
        with pytest.raises(ValueError):
            specfun.bessel_j(-1.5, 1.0)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.5, 3.0])
    def test_array_against_mpmath(self, nu):
        x = np.array([[0.0, 0.05, 0.3, 1.0], [1.7, 0.0, 2.9, 4.0]])
        got = specfun.bessel_j(nu, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        for xi, gi in zip(x.flat, got.flat):
            if xi == 0.0:
                assert gi == float(mpmath.besselj(nu, xi))
            else:
                assert gi == pytest.approx(float(mpmath.besselj(nu, xi)), rel=1e-12)

    def test_scalar_returns_float(self):
        assert type(specfun.bessel_j(2.5, 1.5)) is float
        assert type(specfun.bessel_j(2.5, np.float64(0.0))) is float

    def test_array_with_negative_entry(self):
        with pytest.raises(ValueError, match="-0.25"):
            specfun.bessel_j(1.0, np.array([0.5, -0.25, 1.0]))

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="^x must be non-negative, got x=nan$"):
            specfun.bessel_j(3.0, np.nan)

    @pytest.mark.parametrize("nu,x", [(math.nan, 1.0), (math.nan, 0.0), (math.inf, 1.0)])
    def test_non_finite_order_is_refused(self, nu, x):
        # they returned nan, 0.0 and 0.0
        with pytest.raises(ValueError, match=f"^bessel_j requires a finite nu > -1, got nu={nu!r}$"):
            specfun.bessel_j(nu, x)

    def test_non_convergence_names_nu_and_x(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(RuntimeError, match="nu=3, x=4"):
            specfun.bessel_j(3.0, 4.0)

    @pytest.mark.parametrize("nu,x", [(172.0, 15.0), (200.0, 1.0), (250.0, 15.0)])
    def test_order_past_gamma_overflow(self, nu, x):
        # Gamma(nu + 1) overflows: these raised OverflowError; J_200(1) underflows to exactly 0
        ref = float(mpmath.besselj(nu, x))
        got = specfun.bessel_j(nu, x)
        assert got == ref if ref == 0.0 else got == pytest.approx(ref, rel=1e-12)

    def test_recurrence(self):
        # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
        for nu in (1.0, 2.0, 3.0):
            for x in np.linspace(0.25, 4.0, 16):
                lhs = specfun.bessel_j(nu - 1.0, x) + specfun.bessel_j(nu + 1.0, x)
                rhs = 2.0 * nu / x * specfun.bessel_j(nu, x)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


class TestCaputoSinSeries:
    def test_zero(self):
        assert specfun.caputo_sin_series(0.5, 0.0) == 0.0

    def test_half_at_one(self):
        got = specfun.caputo_sin_series(0.5, 1.0)
        assert got == pytest.approx(CAPUTO_SIN_HALF_AT_1, rel=1e-14)

    def test_alpha_near_one_approaches_cos(self):
        got = specfun.caputo_sin_series(1.0 - 1e-6, 1.0)
        assert abs(got - math.cos(1.0)) <= 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.caputo_sin_series(1.2, 1.0)
        with pytest.raises(ValueError):
            specfun.caputo_sin_series(0.5, -1.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_array_matches_scalar_calls(self, alpha):
        t = np.concatenate(([0.0], np.linspace(1e-3, 3.0, 61)))
        got = specfun.caputo_sin_series(alpha, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        for ti, gi in zip(t, got):
            assert gi == pytest.approx(specfun.caputo_sin_series(alpha, float(ti)), rel=1e-15)

    def test_scalar_returns_float(self):
        assert type(specfun.caputo_sin_series(0.5, 1.0)) is float
        assert type(specfun.caputo_sin_series(0.5, 0.0)) is float

    def test_array_with_negative_entry(self):
        with pytest.raises(ValueError, match="-2"):
            specfun.caputo_sin_series(0.5, np.array([1.0, 0.0, -2.0]))

    def test_non_convergence_is_an_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(RuntimeError, match="^caputo_sin_series failed to converge$"):
            specfun.caputo_sin_series(0.5, np.array([1.0, 4.0]))

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="^t must be non-negative, got t=nan$"):
            specfun.caputo_sin_series(0.5, np.array([1.0, np.nan]))


def _caputo_sin_mpmath(alpha, t):
    t = mpmath.mpf(t)
    terms = lambda k: (-t * t) ** k / mpmath.gamma(2 * k + 2 - alpha)
    return float(t ** (1 - alpha) * mpmath.nsum(terms, [0, mpmath.inf]))


class TestArgumentLimit:
    """Both series hold their accuracy up to an argument of 15 and refuse beyond."""

    LIMIT = 15.0
    ABOVE = math.nextafter(15.0, math.inf)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.5, 3.0])
    def test_bessel_at_limit(self, nu):
        with mpmath.workdps(40):
            ref = float(mpmath.besselj(nu, self.LIMIT))
        assert abs(specfun.bessel_j(nu, self.LIMIT) - ref) <= 1e-11

    # the sine series cancels harder than J: up to ~5e-11 near t = 15
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_caputo_sin_at_limit(self, alpha):
        with mpmath.workdps(40):
            ref = _caputo_sin_mpmath(alpha, self.LIMIT)
        assert abs(specfun.caputo_sin_series(alpha, self.LIMIT) - ref) <= 1e-10

    def test_series_stop_within_40_terms(self, monkeypatch):
        # measured: both stop by term 37 up to 15, for nu in [-0.999, 150] and alpha in [0.001, 0.999]
        x = np.linspace(0.0, self.LIMIT, 1501)
        bessel = {nu: specfun.bessel_j(nu, x) for nu in (-0.999, -0.1, 0.0, 0.5, 2.5, 10.0, 150.0)}
        sine = {alpha: specfun.caputo_sin_series(alpha, x) for alpha in (0.001, 0.25, 0.521, 0.999)}
        monkeypatch.setattr(specfun, "_MAX_TERMS", 40)
        for nu, want in bessel.items():
            assert np.array_equal(specfun.bessel_j(nu, x), want)
        for alpha, want in sine.items():
            assert np.array_equal(specfun.caputo_sin_series(alpha, x), want)

    def test_bessel_above_limit(self):
        with pytest.raises(ValueError, match="at most 15"):
            specfun.bessel_j(2.5, self.ABOVE)
        with pytest.raises(ValueError, match="x=60"):
            specfun.bessel_j(2.5, np.array([1.0, 60.0]))

    def test_caputo_sin_above_limit(self):
        with pytest.raises(ValueError, match="at most 15"):
            specfun.caputo_sin_series(0.5, self.ABOVE)
        with pytest.raises(ValueError, match="t=60"):
            specfun.caputo_sin_series(0.5, np.array([0.0, 60.0]))
