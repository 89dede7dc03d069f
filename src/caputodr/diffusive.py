"""Infinite-state (diffusive) evaluation of Caputo derivatives, order 0 < alpha < 1.

Four representations are provided.  Each rewrites the Caputo derivative as
a weighted integral over auxiliary states w(z, t), one per quadrature node,
that evolve by a *local* ODE in time:

 - YA    first-order states,  weight exponent 2*alpha - 1
 - CDR   cosine kernel states (second order), weight exponent alpha - 1
 - SDR   sine kernel states (second order),   weight exponent alpha
 - ISDR  sine states under z -> z^2,          weight exponent 2*alpha - 1

The second-order systems are advanced by the semi-implicit Euler update

    x1 <- x1 + h * x2_old
    x2 <- (x2_old - s*h*x1_old + kappa*df) / (1 + s*h^2)

(s is z^2, or z^4 for ISDR) and by a trapezoidal corrector whose x1 row
consumes the Euler co-state.  ``fully_implicit=True`` switches the x1 row
to the freshly updated x2 of the same scheme, which for the trapezoidal
solver recovers the classical A-stable trapezoid rule.

``_scheme`` is the single definition of every update: for each (method,
solver, fully_implicit) it returns one step, which drives both
``advance_euler``/``advance_trapezoid`` and ``caputo_derivative``.  The
trapezoid's Euler co-state is the Euler step composed in, not a third
copy of its formulas.

Cost is O(n * N) for n time points and N quadrature nodes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import gauss_laguerre

# Rules are immutable (their arrays are read-only), so repeated runs over
# the same (order, exponent) pair reuse one construction.
_cached_rule = functools.lru_cache(maxsize=64)(gauss_laguerre)

__all__ = [
    "Method",
    "FractionalOrder",
    "TimeGrid",
    "Signal",
    "DiffusiveState",
    "initial_state",
    "advance_euler",
    "advance_trapezoid",
    "caputo_derivative",
    "kernel_reference",
    "max_error",
]


class Method(enum.Enum):
    """Tag selecting one of the four diffusive representations."""

    YA = "YA"
    CDR = "CDR"
    SDR = "SDR"
    ISDR = "ISDR"

    def weight_exponent(self, alpha: float) -> float:
        """Exponent gamma of the Gauss-Laguerre weight z^gamma exp(-z)."""
        a = _alpha_value(alpha)
        if self is Method.CDR:
            return a - 1.0
        if self is Method.SDR:
            return a
        return 2.0 * a - 1.0

    def forcing_coefficient(self, alpha: float) -> float:
        """Constant multiplying the forcing term of the state ODE."""
        a = _alpha_value(alpha)
        if self is Method.YA:
            return 2.0 * math.sin(math.pi * a) / math.pi
        if self is Method.CDR:
            return 2.0 * math.sin(0.5 * math.pi * a) / math.pi
        if self is Method.SDR:
            return 2.0 * math.cos(0.5 * math.pi * a) / math.pi
        return 4.0 * math.cos(0.5 * math.pi * a) / math.pi

    @property
    def forcing(self) -> str:
        """Which samples drive the discrete update: "derivative" or "value"."""
        return "derivative" if self in (Method.YA, Method.CDR) else "value"


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of the derivative, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")


def _alpha_value(alpha) -> float:
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    return FractionalOrder(float(alpha)).alpha


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = (k-1) h on [0, T] with h = T / (n-1)."""

    horizon: float
    count: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.count < 2:
            raise ValueError(f"count must be at least 2, got {self.count!r}")

    @property
    def step(self) -> float:
        return self.horizon / (self.count - 1)

    def times(self) -> np.ndarray:
        return np.arange(self.count) * self.step


@dataclass(frozen=True)
class Signal:
    """A test function y, optionally with its analytic derivative.

    ``derivative_mode`` defaults to "analytic" when y_prime is given and
    "forward_difference" otherwise; passing "forward_difference" with an
    analytic derivative forces the difference approximation (useful for
    comparing against sampled inputs).
    """

    y: Callable[[float], float]
    y_prime: Optional[Callable[[float], float]] = None
    derivative_mode: Optional[str] = None

    def __post_init__(self):
        mode = self.derivative_mode
        if mode is None:
            mode = "analytic" if self.y_prime is not None else "forward_difference"
            object.__setattr__(self, "derivative_mode", mode)
        if mode not in ("analytic", "forward_difference"):
            raise ValueError(f"unknown derivative_mode {mode!r}")
        if mode == "analytic" and self.y_prime is None:
            raise ValueError("derivative_mode='analytic' requires y_prime")

    @classmethod
    def from_samples(cls, times, values) -> "Signal":
        """Signal backed by uniformly spaced samples, looked up by index."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise ValueError("need two equal-length 1-d arrays of at least 2 samples")
        t0 = times[0]
        h = (times[-1] - times[0]) / (len(times) - 1)

        def lookup(t):
            idx = np.rint((np.asarray(t) - t0) / h).astype(int)
            if np.any(idx < 0) or np.any(idx >= len(values)):
                raise ValueError("sample lookup outside the tabulated range")
            out = values[idx]
            return out if np.ndim(t) else float(out)

        return cls(y=lookup, y_prime=None, derivative_mode="forward_difference")


@dataclass(frozen=True)
class DiffusiveState:
    """States x1 (= w at each node) and their time derivatives x2 at step ``index``."""

    x1: np.ndarray
    x2: np.ndarray
    index: int


def initial_state(method: Method, alpha, order: int, initial_slope: float = 0.0) -> DiffusiveState:
    """State at t_1 = 0: zeros, except CDR starts x2 at kappa * y'(0)."""
    x1 = np.zeros(order)
    if method is Method.CDR:
        x2 = np.full(order, method.forcing_coefficient(alpha) * initial_slope)
    else:
        x2 = np.zeros(order)
    return DiffusiveState(x1=x1, x2=x2, index=1)


def _scheme(method: Method, solver: str, alpha, nodes: np.ndarray, h: float, fully_implicit: bool):
    """Build the step of one scheme: the single definition of its update formulas.

    The per-node coefficients are computed once.  The returned
    ``step(x1, x2, f_prev, f_curr, companion)`` maps the states at step k-1
    to those at step k, given the forcing at t_{k-1} and t_k.  ``companion``
    is the Euler co-state's x2 at step k; only the trapezoid x1 row reads
    it, and only when not fully implicit.  YA has no x2 row and passes x2
    through.
    """
    kappa = method.forcing_coefficient(alpha)
    z2 = nodes * nodes
    if method is Method.YA:
        if solver == "euler":
            damp = 1.0 / (1.0 + h * z2)
            hk = h * kappa

            def step(x1, x2, f_prev, f_curr, companion):
                return (x1 + hk * f_curr) * damp, x2

        else:
            damp = 1.0 / (1.0 + 0.5 * h * z2)
            fac = 1.0 - 0.5 * h * z2
            hk = 0.5 * h * kappa

            def step(x1, x2, f_prev, f_curr, companion):
                return (fac * x1 + hk * (f_prev + f_curr)) * damp, x2

        return step

    s = z2 * z2 if method is Method.ISDR else z2
    gain = kappa * nodes * nodes if method is Method.ISDR else kappa
    sh = s * h
    if solver == "euler":
        damp = 1.0 / (1.0 + s * h * h)

        def step(x1, x2, f_prev, f_curr, companion):
            x2_new = (x2 - sh * x1 + gain * (f_curr - f_prev)) * damp
            return x1 + h * (x2_new if fully_implicit else x2), x2_new

        return step

    damp = 1.0 / (1.0 + 0.25 * s * h * h)
    fac = 1.0 - 0.25 * s * h * h

    def step(x1, x2, f_prev, f_curr, companion):
        x2_new = (fac * x2 - sh * x1 + gain * (f_curr - f_prev)) * damp
        return x1 + 0.5 * h * (x2 + (x2_new if fully_implicit else companion)), x2_new

    return step


def _advance(step, state: DiffusiveState, nodes: np.ndarray, forcing_prev, forcing_curr, companion):
    if len(state.x1) != len(nodes):
        raise ValueError("state and node arrays disagree in length")
    x1, x2 = step(state.x1, state.x2, forcing_prev, forcing_curr, companion)
    # YA passes x2 through; the new state must not share the old one's array
    return DiffusiveState(x1=x1, x2=x2.copy() if x2 is state.x2 else x2, index=state.index + 1)


def advance_euler(
    method: Method,
    alpha,
    state: DiffusiveState,
    nodes: np.ndarray,
    grid: TimeGrid,
    forcing_prev: float,
    forcing_curr: float,
    fully_implicit: bool = False,
) -> DiffusiveState:
    """One backward-Euler step of the state system from step k-1 to k.

    ``forcing_prev``/``forcing_curr`` are y'(t_{k-1}), y'(t_k) for YA and
    CDR and y(t_{k-1}), y(t_k) for SDR and ISDR.
    """
    step = _scheme(method, "euler", alpha, nodes, grid.step, fully_implicit)
    return _advance(step, state, nodes, forcing_prev, forcing_curr, None)


def advance_trapezoid(
    method: Method,
    alpha,
    state: DiffusiveState,
    euler_state: DiffusiveState,
    nodes: np.ndarray,
    grid: TimeGrid,
    forcing_prev: float,
    forcing_curr: float,
    fully_implicit: bool = False,
) -> DiffusiveState:
    """One trapezoidal step; ``euler_state`` is the Euler co-state at step k."""
    step = _scheme(method, "trapezoid", alpha, nodes, grid.step, fully_implicit)
    return _advance(step, state, nodes, forcing_prev, forcing_curr, euler_state.x2)


def _sample(func, times: np.ndarray) -> np.ndarray:
    """Evaluate ``func`` on a grid, vectorized when the callable allows it."""
    try:
        out = np.asarray(func(times), dtype=float)
        if out.shape == times.shape:
            return out
    except Exception:
        pass
    return np.array([float(func(t)) for t in times])


def _forcing_samples(method: Method, signal: Signal, times: np.ndarray, h: float):
    """Arrays (forcing f, initial slope y'(0)) driving the stepping."""
    yv = _sample(signal.y, times)
    if signal.derivative_mode == "analytic":
        if signal.y_prime is None:
            raise ValueError(f"{method.value} with analytic mode requires y_prime")
        ypv = _sample(signal.y_prime, times)
        yp0 = ypv[0]
    else:
        ypv = np.empty_like(yv)
        ypv[:-1] = np.diff(yv) / h
        ypv[-1] = (yv[-1] - yv[-2]) / h
        yp0 = ypv[0]
    f = ypv if method.forcing == "derivative" else yv
    return f, yp0


def caputo_derivative(
    method: Method,
    solver: str,
    alpha,
    order: int,
    grid: TimeGrid,
    signal: Signal,
    fully_implicit: bool = False,
) -> np.ndarray:
    """Approximate the Caputo derivative of ``signal`` on every grid point.

    Builds the Gauss-Laguerre rule for the method's weight exponent, steps
    the per-node states across the grid with the requested solver ("euler"
    or "trapezoid"), and assembles sum_i W_i x1_i at each step, where W_i
    are the exp-scaled weights.  The t = 0 entry is exactly zero.
    """
    if solver not in ("euler", "trapezoid"):
        raise ValueError(f"solver must be 'euler' or 'trapezoid', got {solver!r}")
    a = _alpha_value(alpha)
    rule = _cached_rule(order, method.weight_exponent(a))
    z = rule.nodes
    ws = rule.scaled_weights
    h = grid.step
    times = grid.times()
    n = grid.count
    f, yp0 = _forcing_samples(method, signal, times, h)
    # Python floats index and combine faster per step than numpy scalars,
    # with the same IEEE double arithmetic
    f = f.tolist()

    step = _scheme(method, solver, a, z, h, fully_implicit)
    # the non-fully-implicit trapezoid x1 row reads the Euler co-state's x2;
    # YA has no x2 row and needs no co-state
    euler = None
    if solver == "trapezoid" and not fully_implicit and method is not Method.YA:
        euler = _scheme(method, "euler", a, z, h, False)
    start = initial_state(method, a, order, yp0)
    x1, x2 = e1, e2 = start.x1, start.x2
    out = np.zeros(n)
    for k in range(1, n):
        if euler is not None:
            e1, e2 = euler(e1, e2, f[k - 1], f[k], None)
        x1, x2 = step(x1, x2, f[k - 1], f[k], e2)
        out[k] = ws @ x1
    return out


_GL_POINTS, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _composite_gauss(func, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_POINTS[None, :]
    vals = _sample(func, pts.ravel()).reshape(pts.shape)
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))


def kernel_reference(
    method: Method,
    alpha,
    z: float,
    t: float,
    signal: Signal,
    tol: float = 1e-10,
    max_panels: int = 1 << 20,
) -> float:
    """Direct evaluation of the defining state integral w(z, t).

    Testing oracle, independent of the stepping: the time integral (e.g.
    the cosine convolution against y' for CDR) is computed by composite
    Gauss-Legendre panels, at least 8 per oscillation period, doubled until
    two successive refinements agree within ``tol``.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z!r}")
    if signal.derivative_mode != "analytic":
        raise ValueError("kernel_reference requires a signal with an analytic derivative")
    a = _alpha_value(alpha)
    if t == 0.0:
        return 0.0
    yp = signal.y_prime
    if method is Method.YA:
        rate = z * z

        def integrand(tau):
            return np.exp(-(t - tau) * rate) * yp(tau)

        freq = rate
    elif method is Method.CDR:

        def integrand(tau):
            return np.cos((t - tau) * z) * yp(tau)

        freq = z
    elif method is Method.SDR:

        def integrand(tau):
            return np.sin((t - tau) * z) * yp(tau)

        freq = z
    else:

        def integrand(tau):
            return np.sin((t - tau) * z * z) * yp(tau)

        freq = z * z

    panels = max(4, math.ceil(8.0 * t * freq / (2.0 * math.pi)))
    prev = _composite_gauss(integrand, 0.0, t, panels)
    while panels <= max_panels:
        panels *= 2
        curr = _composite_gauss(integrand, 0.0, t, panels)
        if abs(curr - prev) <= tol:
            break
        prev = curr
    else:
        raise RuntimeError(f"kernel_reference did not reach tol={tol:g} within {max_panels} panels")

    kappa = method.forcing_coefficient(a)
    if method is Method.SDR:
        return kappa * curr / z
    return kappa * curr


def max_error(approx, exact) -> float:
    """Largest pointwise absolute difference between two grid functions."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if approx.shape != exact.shape:
        raise ValueError("arrays must have identical shapes")
    return float(np.max(np.abs(approx - exact)))
