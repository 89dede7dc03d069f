import math
import re

import numpy as np
import pytest

from caputodr import (
    Method,
    Signal,
    TimeGrid,
    advance_euler,
    advance_trapezoid,
    builtin_cases,
    caputo_derivative,
    gauss_laguerre,
    initial_state,
    kernel_reference,
    max_error,
)
from caputodr import diffusive
from caputodr.oracle import exact_power

QUADRATIC = Signal(y=lambda t: t * t, y_prime=lambda t: 2.0 * t)


class TestTypes:
    def test_fractional_order_bounds(self):
        assert diffusive._alpha_value(0.5) == 0.5
        assert diffusive._alpha_value(np.float32(0.25)) == 0.25
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match=rf"alpha must lie strictly in \(0, 1\), got {bad!r}"):
                diffusive._alpha_value(bad)
        with pytest.raises(ValueError, match="got nan"):
            Method.CDR.weight_exponent(math.nan)

    def test_time_grid(self):
        grid = TimeGrid(horizon=2.0, count=5)
        assert grid.step == pytest.approx(0.5)
        assert grid.times().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, count=5)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, count=1)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3"])
    def test_time_grid_count_must_be_an_integer(self, count):
        # a fractional count would put the last time past the horizon
        with pytest.raises(ValueError, match=rf"^count must be an integer, got count={count!r}$"):
            TimeGrid(horizon=1.0, count=count)

    def test_time_grid_takes_numpy_integers(self):
        assert TimeGrid(horizon=1.0, count=np.int64(3)).times().tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "horizon,count,message",
        [
            (1.0, np.float64(2.5), "count must be an integer, got count=2.5"),
            (1.0, np.int64(1), "count must be at least 2, got 1"),
            (np.float64(np.nan), 3, "horizon must be positive and finite, got nan"),
        ],
        ids=["float-count", "count-below-2", "nan-horizon"],
    )
    def test_time_grid_names_numpy_scalars_plainly(self, horizon, count, message):
        # numpy 2 would print np.float64(2.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimeGrid(horizon=horizon, count=count)

    def test_signal_modes(self):
        # forward differences stand in for y' exactly when y_prime is None
        assert QUADRATIC.y_prime is not None
        assert Signal(y=lambda t: t).y_prime is None

    # the times of test_input_writes_the_file_times: TimeGrid(0.3, 4) gives 0.09999999999999999, 0.19999999999999998
    SAMPLE_TIMES, SAMPLE_VALUES = [0.0, 0.1, 0.2, 0.3], [0.0, 0.5, 0.7, 0.8]

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["own-times", "rebuilt-grid"])
    def test_sampled_signal_reads_its_times(self, rebuilt):
        values = np.array(self.SAMPLE_VALUES)
        sig = Signal.from_samples(self.SAMPLE_TIMES, values)
        assert sig.y_prime is None
        times = TimeGrid(horizon=0.3, count=4).times() if rebuilt else np.array(self.SAMPLE_TIMES)
        assert np.array_equal(times, self.SAMPLE_TIMES) is not rebuilt
        out = sig.y(times)
        assert out.tobytes() == values.tobytes()
        # read-only, and a copy: the caller's array stays writable and does not reach the signal
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 1.0
        values[1] = 9.0
        assert sig.y(times)[1] == 0.5

    @pytest.mark.parametrize(
        "times,message",
        [
            (TimeGrid(horizon=3.0, count=4).times(), "t=1.0 is not sample time 2 (0.1)"),
            ([0.0, 0.1, np.nan, 0.3], "t=nan is not sample time 3 (0.2)"),
            ([0.0, 0.1, 0.25, 0.3], "t=0.25 is not sample time 3 (0.2)"),
            (0.1, "a sampled signal reads only its 4 sample times, got shape ()"),
            ([0.0, 0.1], "a sampled signal reads only its 4 sample times, got shape (2,)"),
        ],
        ids=["other-horizon", "nan", "between-samples", "point", "subset"],
    )
    def test_sampled_signal_refuses_other_times(self, times, message):
        sig = Signal.from_samples(self.SAMPLE_TIMES, self.SAMPLE_VALUES)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sig.y(times)

    def test_signal_from_samples_rejects_non_finite(self):
        times = np.linspace(0.0, 1.0, 11)
        values = times**2
        values[6] = np.nan
        with pytest.raises(ValueError, match=r"^sample row 7 is not finite: t=0\.6000000000000001, y=nan$"):
            Signal.from_samples(times, values)

    @pytest.mark.parametrize(
        "times,match",
        [
            ([0.0, 0.1, 0.5, 1.0], "not uniform"),
            ([0.0, 0.0, 0.0], "strictly increasing"),
            ([0.5, 1.0], "^sample grid must start at t=0$"),
            # the uniformity check comes first, so a file refused before still prints the same message
            ([0.5, 0.6, 1.0], "not uniform"),
        ],
    )
    def test_signal_from_samples_rejects_bad_grid(self, times, match):
        with pytest.raises(ValueError, match=match):
            Signal.from_samples(times, np.arange(len(times), dtype=float))

    @pytest.mark.parametrize(
        "times,values",
        [([0.0, 0.5, 1.0], [0.0, 1.0]), ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]]), ([0.0], [1.0])],
    )
    def test_signal_from_samples_rejects_bad_shapes(self, times, values):
        with pytest.raises(ValueError, match="need two equal-length 1-d arrays of at least 2 samples"):
            Signal.from_samples(times, values)

    def test_method_exponents(self):
        a = 0.6
        assert Method.YA.weight_exponent(a) == pytest.approx(2 * a - 1)
        assert Method.CDR.weight_exponent(a) == pytest.approx(a - 1)
        assert Method.SDR.weight_exponent(a) == pytest.approx(a)
        assert Method.ISDR.weight_exponent(a) == pytest.approx(2 * a - 1)

    def test_initial_state(self):
        st = initial_state(Method.CDR, 0.4, 3, initial_slope=2.0)
        kappa = 2 * math.sin(0.2 * math.pi) / math.pi
        np.testing.assert_allclose(st.x2, 2.0 * kappa)
        assert np.all(st.x1 == 0.0)
        for method in (Method.YA, Method.SDR, Method.ISDR):
            st = initial_state(method, 0.4, 3, initial_slope=2.0)
            assert np.all(st.x1 == 0.0) and np.all(st.x2 == 0.0)


class TestAdvance:
    GRID = TimeGrid(horizon=1.0, count=11)  # h = 0.1

    def test_euler_frozen_example(self):
        # CDR, alpha=0.4, z=2, h=0.1, x1=1, x2=0, df=0
        from caputodr.diffusive import DiffusiveState

        state = DiffusiveState(x1=np.array([1.0]), x2=np.array([0.0]))
        nodes = np.array([2.0])
        new = advance_euler(Method.CDR, 0.4, state, nodes, self.GRID, 0.0, 0.0)
        assert new.x1[0] == pytest.approx(1.0, abs=0)
        assert new.x2[0] == pytest.approx(-0.4 / 1.04, rel=1e-15)

    def test_trapezoid_frozen_example(self):
        from caputodr.diffusive import DiffusiveState

        state = DiffusiveState(x1=np.array([1.0]), x2=np.array([0.0]))
        nodes = np.array([2.0])
        eul = advance_euler(Method.CDR, 0.4, state, nodes, self.GRID, 0.0, 0.0)
        new = advance_trapezoid(Method.CDR, 0.4, state, eul, nodes, self.GRID, 0.0, 0.0)
        assert new.x1[0] == pytest.approx(1.0 + 0.05 * (-0.4 / 1.04), rel=1e-15)
        assert new.x2[0] == pytest.approx(-0.4 / 1.01, rel=1e-15)

    def test_zero_stiffness_node(self):
        from caputodr.diffusive import DiffusiveState

        kappa = Method.CDR.forcing_coefficient(0.4)
        state = DiffusiveState(x1=np.array([0.5]), x2=np.array([0.25]))
        nodes = np.array([0.0])
        new = advance_euler(Method.CDR, 0.4, state, nodes, self.GRID, 0.0, 1.0)
        assert new.x1[0] == pytest.approx(0.5 + 0.1 * 0.25)
        assert new.x2[0] == pytest.approx(0.25 + kappa * 1.0)

    def test_zero_stiffness_trapezoid(self):
        # at z=0 the x2 row reduces to x2 + kappa*df and x1 gains
        # (h/2)(x2_old + x2_euler)
        from caputodr.diffusive import DiffusiveState

        state = DiffusiveState(x1=np.array([0.5]), x2=np.array([0.25]))
        nodes = np.array([0.0])
        eul = advance_euler(Method.SDR, 0.4, state, nodes, self.GRID, 0.0, 0.0)
        new = advance_trapezoid(Method.SDR, 0.4, state, eul, nodes, self.GRID, 0.0, 0.0)
        assert new.x2[0] == pytest.approx(0.25)
        assert new.x1[0] == pytest.approx(0.5 + 0.05 * (0.25 + eul.x2[0]))

    @pytest.mark.parametrize("method", list(Method))
    def test_zero_forcing_keeps_zero_state(self, method):
        state = initial_state(method, 0.5, 4)
        nodes = np.array([0.5, 1.0, 2.0, 4.0])
        eul = advance_euler(method, 0.5, state, nodes, self.GRID, 0.0, 0.0)
        trap = advance_trapezoid(method, 0.5, state, eul, nodes, self.GRID, 0.0, 0.0)
        assert np.all(eul.x1 == 0.0) and np.all(eul.x2 == 0.0)
        assert np.all(trap.x1 == 0.0) and np.all(trap.x2 == 0.0)

    def test_length_mismatch(self):
        state = initial_state(Method.CDR, 0.5, 4)
        with pytest.raises(ValueError):
            advance_euler(Method.CDR, 0.5, state, np.array([1.0]), self.GRID, 0.0, 0.0)


class TestKernelReference:
    def test_zero_time(self):
        assert kernel_reference(Method.CDR, 0.4, 1.0, 0.0, QUADRATIC) == 0.0

    def test_cdr_closed_form(self):
        # int_0^1 cos(1-tau) 2 tau dtau = 2 (1 - cos 1)
        kappa = 2 * math.sin(0.2 * math.pi) / math.pi
        want = kappa * 2.0 * (1.0 - math.cos(1.0))
        got = kernel_reference(Method.CDR, 0.4, 1.0, 1.0, QUADRATIC, tol=1e-12)
        assert got == pytest.approx(want, abs=1e-10)

    def test_sdr_small_z_limit(self):
        # sin((t-tau) z)/z -> (t-tau): for y=t the kernel tends to kappa/2
        linear = Signal(y=lambda t: np.asarray(t, float), y_prime=lambda t: np.ones_like(np.asarray(t, float)))
        kappa = 2 * math.cos(0.25 * math.pi) / math.pi
        got = kernel_reference(Method.SDR, 0.5, 1e-6, 1.0, linear, tol=1e-12)
        assert abs(got - 0.5 * kappa) <= 1e-6

    def test_requires_analytic_derivative(self):
        with pytest.raises(ValueError):
            kernel_reference(Method.CDR, 0.4, 1.0, 1.0, Signal(y=lambda t: t))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kernel_reference(Method.CDR, 0.4, -1.0, 1.0, QUADRATIC)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0])
    def test_z_must_be_positive_and_finite(self, z):
        with pytest.raises(ValueError, match=rf"^z must be positive and finite, got z={z!r}$"):
            kernel_reference(Method.YA, 0.5, z, 1.0, QUADRATIC)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_t_must_be_non_negative_and_finite(self, t):
        # unchecked, a negative t would integrate over [0, t] and return a number
        with pytest.raises(ValueError, match=rf"^t must be non-negative and finite, got t={t!r}$"):
            kernel_reference(Method.YA, 0.5, 1.0, t, QUADRATIC)

    def test_numpy_scalars_are_named_plainly(self):
        with pytest.raises(ValueError, match=r"^z must be positive and finite, got z=nan$"):
            kernel_reference(Method.YA, 0.5, np.float64(np.nan), 1.0, QUADRATIC)
        with pytest.raises(ValueError, match=r"^t must be non-negative and finite, got t=-1\.0$"):
            kernel_reference(Method.YA, 0.5, 1.0, np.float64(-1.0), QUADRATIC)

    def test_panel_limit_is_an_error(self, monkeypatch):
        # y' = 1.5 sqrt(t) is not smooth at 0, so 4 and 8 panels differ by far more than tol
        monkeypatch.setattr(diffusive, "_MAX_PANELS", 4)
        rough = Signal(y=lambda t: t**1.5, y_prime=lambda t: 1.5 * np.sqrt(t))
        with pytest.raises(RuntimeError, match=r"did not reach tol=1e-15 within 4 panels"):
            kernel_reference(Method.CDR, 0.4, 1.0, 1.0, rough, tol=1e-15)


def _step_single_node(method, solver, alpha, z, t_end, h, signal):
    """Drive the public advance ops on a one-node state; return final x1."""
    n = int(round(t_end / h)) + 1
    grid = TimeGrid(horizon=t_end, count=n)
    times = grid.times()
    yv = signal.y(times)
    fv = signal.y_prime(times) if method.forcing == "derivative" else yv
    nodes = np.array([z])
    state = initial_state(method, alpha, 1, initial_slope=signal.y_prime(0.0))
    euler = state
    for k in range(1, n):
        if solver == "euler":
            state = advance_euler(method, alpha, state, nodes, grid, fv[k - 1], fv[k])
        else:
            euler = advance_euler(method, alpha, euler, nodes, grid, fv[k - 1], fv[k])
            state = advance_trapezoid(method, alpha, state, euler, nodes, grid, fv[k - 1], fv[k])
    return state.x1[0]


class TestStepperAgainstKernel:
    @pytest.mark.parametrize("method", list(Method))
    def test_mild_node_orders(self, method):
        z, alpha = 0.5, 0.4
        ref = kernel_reference(method, alpha, z, 1.0, QUADRATIC, tol=1e-12)
        for solver, bound in (("euler", 0.6), ("trapezoid", 0.35)):
            errs = [
                abs(_step_single_node(method, solver, alpha, z, 1.0, h, QUADRATIC) - ref)
                for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)
            ]
            for coarse, fine in zip(errs, errs[1:]):
                assert fine <= bound * coarse

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("z", [5.0, 50.0])
    def test_stiffer_nodes_converge(self, method, z):
        alpha = 0.4
        ref = kernel_reference(method, alpha, z, 1.0, QUADRATIC, tol=1e-12)
        hs = (2e-3, 1e-3, 5e-4, 2.5e-4)
        errs = [
            abs(_step_single_node(method, "euler", alpha, z, 1.0, h, QUADRATIC) - ref)
            for h in hs
        ]
        # 1e-12 floor: the YA state at z=50 is already converged to rounding
        assert errs[-1] <= max(0.9 * errs[0], 1e-12)
        assert errs[-1] <= 0.5 * max(abs(ref), 1e-3)


class TestCaputoDerivative:
    GRID = TimeGrid(horizon=1.0, count=401)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    def test_constant_signal_is_zero(self, method, solver):
        const = Signal(y=lambda t: np.full_like(np.asarray(t, float), 3.7), y_prime=lambda t: np.zeros_like(np.asarray(t, float)))
        out = caputo_derivative(method, solver, 0.5, 20, self.GRID, const)
        assert np.max(np.abs(out)) <= 1e-14

    @pytest.mark.parametrize("method", list(Method))
    def test_zero_at_origin(self, method):
        out = caputo_derivative(method, "euler", 0.5, 10, self.GRID, QUADRATIC)
        assert out[0] == 0.0

    @pytest.mark.parametrize("method", list(Method))
    def test_linearity(self, method):
        rng = np.random.default_rng(7)
        times = self.GRID.times()
        for _ in range(5):
            c1 = rng.uniform(-1, 1, size=4)
            c2 = rng.uniform(-1, 1, size=4)
            a, b = rng.uniform(-2, 2, size=2)
            s1 = _poly_signal(c1)
            s2 = _poly_signal(c2)
            s12 = _poly_signal(a * c1 + b * c2)
            out1 = caputo_derivative(method, "euler", 0.5, 15, self.GRID, s1)
            out2 = caputo_derivative(method, "euler", 0.5, 15, self.GRID, s2)
            both = caputo_derivative(method, "euler", 0.5, 15, self.GRID, s12)
            assert np.max(np.abs(a * out1 + b * out2 - both)) <= 1e-12

    def test_accuracy_on_cubic(self):
        grid = TimeGrid(horizon=1.0, count=2001)
        cubic = Signal(y=lambda t: t**3, y_prime=lambda t: 3 * t**2)
        out = caputo_derivative(Method.CDR, "euler", 0.6, 50, grid, cubic)
        exact = exact_power(3.0, 0.6, grid.times())
        assert max_error(out, exact) <= 5e-3

    def test_pointwise_quality_power16(self):
        # t^1.6 at alpha=0.4 on [0,3], CDR, N=50: relative error stays within
        # a few percent away from the origin
        grid = TimeGrid(horizon=3.0, count=10_000)
        sig = Signal(y=lambda t: np.asarray(t, float) ** 1.6, y_prime=lambda t: 1.6 * np.asarray(t, float) ** 0.6)
        out = caputo_derivative(Method.CDR, "euler", 0.4, 50, grid, sig)
        t = grid.times()
        exact = exact_power(1.6, 0.4, t)
        mask = t >= 0.3
        rel = np.abs(out[mask] - exact[mask]) / exact[mask]
        assert np.max(rel) <= 0.05

    def test_trapezoid_not_worse_than_euler(self):
        # both solvers are quadrature-error dominated at this resolution
        grid = TimeGrid(horizon=1.0, count=10_000)
        cubic = Signal(y=lambda t: np.asarray(t, float) ** 3, y_prime=lambda t: 3 * np.asarray(t, float) ** 2)
        exact = exact_power(3.0, 0.6, grid.times())
        e_euler = max_error(caputo_derivative(Method.CDR, "euler", 0.6, 50, grid, cubic), exact)
        e_trap = max_error(caputo_derivative(Method.CDR, "trapezoid", 0.6, 50, grid, cubic), exact)
        assert e_trap <= e_euler

    @pytest.mark.parametrize(
        "method,read", [(Method.YA, "y_prime"), (Method.CDR, "y_prime"), (Method.SDR, "y"), (Method.ISDR, "y")]
    )
    def test_samples_only_the_forcing_it_reads(self, method, read):
        calls = {"y": 0, "y_prime": 0}

        def counted(name, func):
            def wrapped(t):
                calls[name] += 1
                return func(t)

            return wrapped

        sig = Signal(y=counted("y", np.sin), y_prime=counted("y_prime", np.cos))
        caputo_derivative(method, "euler", 0.5, 8, self.GRID, sig)
        assert calls == {"y": 0, "y_prime": 0, read: 1}
        # without y', every method reads y once
        calls.update(y=0, y_prime=0)
        caputo_derivative(method, "euler", 0.5, 8, self.GRID, Signal(y=sig.y))
        assert calls == {"y": 1, "y_prime": 0}

    def test_forward_difference_mode_runs(self):
        bare = Signal(y=lambda t: np.asarray(t, float) ** 3)
        out = caputo_derivative(Method.CDR, "euler", 0.6, 30, self.GRID, bare)
        exact = exact_power(3.0, 0.6, self.GRID.times())
        assert max_error(out, exact) <= 2e-2

    def test_fully_implicit_variant_close_to_default(self):
        cubic = Signal(y=lambda t: t**3, y_prime=lambda t: 3 * t**2)
        base = caputo_derivative(Method.CDR, "euler", 0.6, 30, self.GRID, cubic)
        variant = caputo_derivative(Method.CDR, "euler", 0.6, 30, self.GRID, cubic, fully_implicit=True)
        assert 0 < np.max(np.abs(base - variant)) <= 5.0 * self.GRID.step

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            caputo_derivative(Method.CDR, "rk4", 0.5, 10, self.GRID, QUADRATIC)

    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", [Method.CDR, Method.SDR, Method.ISDR])
    def test_overflowing_step_is_refused(self, method, solver, fully_implicit):
        # s h^2 overflows; the plan build warned and failed with "need at least one array to stack"
        grid = TimeGrid(horizon=1e160, count=11)
        message = f"{method.value} {solver} step coefficients overflow at N=10, h=1e+159; shorten the step"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            caputo_derivative(method, solver, 0.5, 10, grid, Signal(y=lambda t: t / 1e160), fully_implicit)


def _assert_matches_advance_ops(method, solver, fully_implicit, steps):
    """caputo_derivative equals W . x1 stepped through the public advance ops."""
    # sine has y'(0) = 1, so CDR starts from a nonzero x2
    case = builtin_cases()["sine"]
    alpha, order = case.alpha, 12
    grid = TimeGrid(horizon=case.horizon, count=steps + 1)
    times = grid.times()
    fv = case.signal.y_prime(times) if method.forcing == "derivative" else case.signal.y(times)
    rule = gauss_laguerre(order, method.weight_exponent(alpha))
    state = euler = initial_state(method, alpha, order, initial_slope=case.signal.y_prime(0.0))
    ref = np.zeros(grid.count)
    for k in range(1, grid.count):
        args = (rule.nodes, grid, fv[k - 1], fv[k])
        if solver == "euler":
            state = advance_euler(method, alpha, state, *args, fully_implicit=fully_implicit)
        else:
            euler = advance_euler(method, alpha, euler, *args)
            state = advance_trapezoid(method, alpha, state, euler, *args, fully_implicit=fully_implicit)
        ref[k] = rule.scaled_weights @ state.x1
    out = caputo_derivative(method, solver, alpha, order, grid, case.signal, fully_implicit=fully_implicit)
    assert out[0] == 0.0
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSchemeEquivalence:
    """caputo_derivative against the public advance ops on a 400-point grid."""

    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_advance_ops(self, method, solver, fully_implicit):
        _assert_matches_advance_ops(method, solver, fully_implicit, 399)


class TestSchemeProperties:
    """det A of each scheme's step against closed forms of the theta-rule.

    theta = 1 (Euler) or 1/2 (trapezoid); s = z^2, or z^4 for ISDR.  YA's
    scalar step is (1 - (1-theta) h z^2) / (1 + theta h z^2).  Every
    second-order step is area-preserving except the fully implicit Euler,
    whose det is 1 / (1 + s h^2).
    """

    @pytest.mark.parametrize("h", [1e-4, 1e-2])
    @pytest.mark.parametrize("order", [10, 160])
    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_determinant(self, method, solver, fully_implicit, order, h):
        alpha = 0.4
        z = gauss_laguerre(order, method.weight_exponent(alpha)).nodes
        A, _, _ = diffusive._system(method, solver, alpha, z, h, fully_implicit)
        det = np.linalg.det(np.moveaxis(A, -1, 0))
        theta = 1.0 if solver == "euler" else 0.5
        s = z**4 if method is Method.ISDR else z**2
        if method is Method.YA:
            want = (1.0 - (1.0 - theta) * h * z**2) / (1.0 + theta * h * z**2)
        elif fully_implicit and solver == "euler":
            want = 1.0 / (1.0 + s * h * h)
        else:
            want = np.ones(order)
        assert np.max(np.abs(det - want)) <= 1e-12


class TestRate:
    """Method.rate against the eigenvalues of the step caputo_derivative runs.

    At each node with x = rate(z) h <= 0.05, YA's step scales its state by
    ~exp(-x) and the other methods' steps turn theirs by ~x.  Measured
    relative misfits: at most 0.497 x for YA (its backward Euler, 1/(1 + x)
    against exp(-x)) and 0.023 x for the rotations.  The trapezoid that
    consumes its Euler co-state has the co-state's pair at ~x and its own
    pair, whose x1 row reads the co-state's x2, at ~x / sqrt(2).
    """

    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_eigenvalues_follow_rate(self, method, solver, fully_implicit):
        alpha, h = 0.6, 1e-3
        z = gauss_laguerre(20, method.weight_exponent(alpha)).nodes
        z = z[method.rate(z) * h <= 0.05]
        assert len(z) >= 4
        x = method.rate(z) * h
        A, _, _ = diffusive._system(method, solver, alpha, z, h, fully_implicit)
        eig = np.linalg.eigvals(np.moveaxis(A, -1, 0))
        if method is Method.YA:
            assert np.all(np.abs(-np.log(np.abs(eig[:, 0])) / x - 1.0) <= 0.55 * x)
            return
        turn = np.sort(np.abs(np.angle(eig)), axis=1)
        assert np.all(np.abs(turn[:, -1] / x - 1.0) <= 0.05 * x)
        if turn.shape[1] == 4:
            assert np.all(np.abs(turn[:, 0] * math.sqrt(2.0) / x - 1.0) <= 0.05 * x)


class TestBlockBoundaries:
    """caputo_derivative around the edges of its blocks of time steps."""

    B = diffusive._BLOCK

    # 2B+1 .. 16B+1 give 3, 5, 9 and 17 blocks: one past each doubling span
    @pytest.mark.parametrize("steps", [1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 5, 4 * B + 1, 8 * B + 1, 16 * B + 1])
    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_advance_ops(self, method, solver, fully_implicit, steps):
        _assert_matches_advance_ops(method, solver, fully_implicit, steps)


class TestChunks:
    """caputo_derivative with chunks of 4 blocks, carrying the state across them."""

    B = diffusive._BLOCK

    @pytest.mark.parametrize("steps", [4 * B, 4 * B + 1, 9 * B + 3])
    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_advance_ops(self, method, solver, fully_implicit, steps, monkeypatch):
        monkeypatch.setattr(diffusive, "_CHUNK", 4)
        _assert_matches_advance_ops(method, solver, fully_implicit, steps)

    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", [Method.YA, Method.CDR])
    def test_one_block_per_output_product(self, method, solver, monkeypatch):
        # a product budget of 1 forces one block per output product
        monkeypatch.setattr(diffusive, "_ONE_THREAD", 1)
        _assert_matches_advance_ops(method, solver, False, 9 * self.B + 3)

    @pytest.mark.parametrize("fully_implicit", [False, True])
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    @pytest.mark.parametrize("method", list(Method))
    def test_output_product_tables_are_c_ordered(self, method, solver, fully_implicit):
        # OpenBLAS keeps a product of _ONE_THREAD size on one thread only with its right operand in C order
        _, _, _, toeplitz, readout = diffusive._plan(method, solver, 0.6, 20, 1e-3, fully_implicit)
        assert toeplitz.flags.c_contiguous and readout.flags.c_contiguous


class TestSampleFallback:
    TIMES = np.linspace(0.0, 1.0, 7)

    def test_scalar_callable_is_not_retried(self):
        calls = []

        def scalar_sin(t):
            calls.append(t)
            return math.sin(t)

        with pytest.raises(TypeError):
            diffusive._sample(scalar_sin, self.TIMES)
        assert len(calls) == 1

    def test_wrong_shape_names_callable(self):
        with pytest.raises(ValueError, match="<lambda> returned shape"):
            diffusive._sample(lambda t: 3.7, self.TIMES)

    def test_vectorized_callable_is_silent(self):
        out = diffusive._sample(np.sin, self.TIMES)
        np.testing.assert_array_equal(out, np.sin(self.TIMES))

    @pytest.mark.parametrize("name", sorted(builtin_cases()))
    def test_builtin_cases_are_vectorized(self, name):
        case = builtin_cases()[name]
        times = TimeGrid(horizon=case.horizon, count=1000).times()
        diffusive._sample(case.signal.y, times)
        diffusive._sample(case.signal.y_prime, times)
        exact = case.exact(times)
        assert isinstance(exact, np.ndarray) and exact.shape == times.shape

    def test_non_finite_value_names_callable_value_and_time(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match=r"^log returned -inf at t=0\.0$"):
                diffusive._sample(np.log, self.TIMES)
        with pytest.raises(ValueError, match=r"<lambda> returned nan at t=0\.5$"):
            diffusive._sample(lambda t: np.where(t < 0.4, t, np.nan), self.TIMES)

    def test_infinite_derivative_raises_through_caputo_derivative(self):
        # y' = 1/(2 sqrt t) is infinite at t = 0; unchecked, it would turn the derivative into NaN
        def root_slope(t):
            with np.errstate(divide="ignore"):
                return 0.5 / np.sqrt(t)

        signal = Signal(y=np.sqrt, y_prime=root_slope)
        with pytest.raises(ValueError, match=r"root_slope returned inf at t=0\.0$"):
            caputo_derivative(Method.CDR, "euler", 0.5, 10, TimeGrid(1.0, 101), signal)

    # finite samples whose slope (1 / 1e-320) or whose difference (1e308 - -1e308) overflows
    @pytest.mark.parametrize(
        "times,values,methods,where",
        [
            ([0.0, 1e-320, 2e-320], [0.0, 1.0, 2.0], [Method.YA, Method.CDR], "1e-320"),
            ([0.0, 0.5, 1.0], [0.0, 1e308, -1e308], list(Method), "0.5"),
        ],
        ids=["slope", "difference"],
    )
    @pytest.mark.parametrize("solver", ["euler", "trapezoid"])
    def test_overflowing_samples_raise(self, times, values, methods, where, solver):
        # they used to warn (an error under this suite's filterwarnings) and return nan
        signal = Signal.from_samples(times, values)
        grid = TimeGrid(times[-1], 3)
        for method in methods:
            for fully_implicit in (False, True):
                message = rf"^{method.value} {solver} derivative overflows to nan at t={where}$"
                with pytest.raises(ValueError, match=message):
                    caputo_derivative(method, solver, 0.5, 50, grid, signal, fully_implicit=fully_implicit)

    @pytest.mark.parametrize("method", list(Method))
    def test_one_call_per_run(self, method):
        calls = []

        def counted(func):
            return lambda t: calls.append(t.size) or func(t)

        case = builtin_cases()["bessel"]
        signal = Signal(y=counted(case.signal.y), y_prime=counted(case.signal.y_prime))
        caputo_derivative(method, "trapezoid", 0.5, 20, TimeGrid(case.horizon, 1001), signal)
        assert calls == [1001]

    def test_other_errors_propagate(self):
        def broken(t):
            raise RuntimeError("broken signal")

        with pytest.raises(RuntimeError, match="broken signal"):
            diffusive._sample(broken, self.TIMES)

    def test_out_of_range_signal_fails_on_first_call(self):
        # the bessel series refuses arguments past 15: one call, no per-point retry
        case = builtin_cases()["bessel"]
        calls = []

        def counted(t):
            calls.append(t)
            return case.signal.y_prime(t)

        signal = Signal(y=case.signal.y, y_prime=counted)
        with pytest.raises(ValueError, match="at most 15"):
            caputo_derivative(Method.CDR, "euler", 0.5, 50, TimeGrid(400.0, 100_000), signal)
        assert len(calls) == 1


def _poly_signal(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    return Signal(y=poly, y_prime=dpoly)


class TestAsymptotics:
    def test_kernel_bounded_at_small_z(self):
        vals = [
            abs(kernel_reference(Method.CDR, 0.4, z, 1.0, QUADRATIC, tol=1e-12))
            for z in (1e-4, 1e-3, 1e-2)
        ]
        assert max(vals) / min(vals) <= 10.0

    def test_kernel_decay_at_large_z(self):
        scaled = [
            abs(kernel_reference(Method.CDR, 0.4, z, 1.0, QUADRATIC, tol=1e-11)) * z * z
            for z in (1e2, 1e3)
        ]
        assert max(scaled) / min(scaled) <= 10.0


class TestMaxError:
    def test_identical(self):
        assert max_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_bump(self):
        a = np.zeros(5)
        b = a.copy()
        b[2] = 1e-3
        assert max_error(a, b) == pytest.approx(1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_error([1.0], [1.0, 2.0])
