"""Infinite-state (diffusive) evaluation of Caputo derivatives, order 0 < alpha < 1.

Four representations are provided.  Each rewrites the Caputo derivative as
a weighted integral over auxiliary states w(z, t), one per quadrature node,
that evolve by a *local* ODE in time:

 - YA    first-order states,  weight exponent 2*alpha - 1
 - CDR   cosine kernel states (second order), weight exponent alpha - 1
 - SDR   sine kernel states (second order),   weight exponent alpha
 - ISDR  sine states under z -> z^2,          weight exponent 2*alpha - 1

Both solvers are the theta-rule on the linear state ODE: backward Euler
is theta = 1 and the trapezoid theta = 1/2.  YA's x1' = -z^2 x1 + kappa f
is the rule on one row.  For x1' = x2, x2' = -s x1 + g f' (s = z^2 and
g = kappa, or z^4 and kappa z^2 for ISDR) the update is

    x2 <- ((1 - theta(1-theta) s h^2) x2_old - s*h*x1_old + g*df) / (1 + theta^2 s h^2)
    x1 <- x1_old + h * ((1-theta) x2_old + theta * ahead)

where ``ahead`` is the old x2 for the semi-implicit Euler and, for the
trapezoid, the x2 of an Euler co-state advanced alongside.
``fully_implicit=True`` makes ``ahead`` the freshly updated x2 of the same
scheme, which for the trapezoid recovers the classical A-stable rule.

``_scheme`` is the single definition of every update: for each (method,
solver, fully_implicit) it returns one step, which drives both
``advance_euler``/``advance_trapezoid`` and ``caputo_derivative``.  The
trapezoid's Euler co-state is the Euler step composed in, not a third
copy of its formulas.

For a fixed step h every scheme is linear and time invariant: the state S
(x1 for YA, (x1, x2) otherwise, plus the Euler co-state for the trapezoid)
obeys S_k = A S_{k-1} + b0 f_{k-1} + b1 f_k node by node, and the output is
sum_i W_i x1_i.  ``caputo_derivative`` reads (A, b0, b1) off ``_scheme``
and advances _BLOCK = 64 time steps per iteration: each block's outputs are
the free response of its start state plus its forcing convolved with the
aggregate impulse response, and one update carries the state to the
block's end.  For n time points and N quadrature nodes that is O(n * N)
flops in ceil((n - 1) / 64) Python iterations, with O(64 * d * N)
working memory for a d-dimensional state.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import gauss_laguerre

_log = logging.getLogger(__name__)

# Rules are immutable (their arrays are read-only), so repeated runs over
# the same (order, exponent) pair reuse one construction.
_cached_rule = functools.lru_cache(maxsize=64)(gauss_laguerre)

# Time steps caputo_derivative advances per block.  Its tables hold
# O(_BLOCK * d * N) floats: on n = 1e4 compare runs, 128 raised peak memory
# by ~0.9 MB for no measurable speed-up, and 32 ran ~10% slower.
_BLOCK = 64

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
        _require_finite(times, values)
        t0 = times[0]
        h = (times[-1] - times[0]) / (len(times) - 1)

        def lookup(t):
            idx = np.rint((np.asarray(t) - t0) / h).astype(int)
            if np.any(idx < 0) or np.any(idx >= len(values)):
                raise ValueError("sample lookup outside the tabulated range")
            out = values[idx]
            return out if np.ndim(t) else float(out)

        return cls(y=lookup, y_prime=None, derivative_mode="forward_difference")


def _require_finite(times: np.ndarray, values: np.ndarray) -> None:
    """Reject samples with a NaN or infinite t or y, naming the first (1-based) row."""
    bad = ~(np.isfinite(times) & np.isfinite(values))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"sample row {i + 1} is not finite: t={times[i]!r}, y={values[i]!r}")


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

    Both solvers are the theta-rule, theta = 1 for "euler" and 1/2 for
    "trapezoid"; the per-node coefficients are computed once.  The returned
    ``step(x1, x2, f_prev, f_curr, companion)`` maps the states at step k-1
    to those at step k, given the forcing at t_{k-1} and t_k.  ``companion``
    is the Euler co-state's x2 at step k; only the trapezoid x1 row reads
    it, and only when not fully implicit.  YA has no x2 row and passes x2
    through.
    """
    theta = 1.0 if solver == "euler" else 0.5
    # (1 - theta) old + theta new = theta (new + lag old)
    lag = (1.0 - theta) / theta
    th = theta * h
    kappa = method.forcing_coefficient(alpha)
    z2 = nodes * nodes
    if method is Method.YA:
        damp = 1.0 / (1.0 + th * z2)
        fac = 1.0 - (1.0 - theta) * h * z2
        hk = th * kappa

        def step(x1, x2, f_prev, f_curr, companion):
            return (fac * x1 + hk * (f_curr + lag * f_prev)) * damp, x2

        return step

    s = z2 * z2 if method is Method.ISDR else z2
    gain = kappa * nodes * nodes if method is Method.ISDR else kappa
    sh = s * h
    damp = 1.0 / (1.0 + theta * theta * s * h * h)
    fac = 1.0 - theta * (1.0 - theta) * s * h * h

    def step(x1, x2, f_prev, f_curr, companion):
        x2_new = (fac * x2 - sh * x1 + gain * (f_curr - f_prev)) * damp
        ahead = x2_new if fully_implicit else (companion if theta < 1.0 else x2)
        return x1 + th * (ahead + lag * x2), x2_new

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
    """Evaluate ``func`` on a grid, vectorized when the callable allows it.

    A callable that rejects arrays or returns the wrong shape is evaluated
    point by point instead; the fallback is logged at INFO.
    """
    try:
        out = np.asarray(func(times), dtype=float)
    except (TypeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        if out.shape == times.shape:
            return out
        reason = f"returned shape {out.shape} for {times.shape}"
    name = getattr(func, "__qualname__", None) or repr(func)
    _log.info("sampling %s point by point over %d points (%s)", name, times.size, reason)
    return np.array([float(func(t)) for t in times])


def _forcing_samples(method: Method, signal: Signal, times: np.ndarray, h: float):
    """Arrays (forcing f, initial slope y'(0)) driving the stepping."""
    yv = _sample(signal.y, times)
    if signal.derivative_mode == "analytic":
        ypv = _sample(signal.y_prime, times)
    else:
        ypv = np.empty_like(yv)
        ypv[:-1] = np.diff(yv) / h
        ypv[-1] = (yv[-1] - yv[-2]) / h
    f = ypv if method.forcing == "derivative" else yv
    return f, ypv[0]


def _system(method: Method, solver: str, alpha, nodes: np.ndarray, h: float, fully_implicit: bool):
    """Per-node (A, b0, b1) of the step ``caputo_derivative`` runs, read off ``_scheme``.

    The state S is x1 for YA, (x1, x2) for the other methods, and
    (x1, x2, e1, e2) for the trapezoid that consumes its Euler co-state
    (e1, e2).  The composed step is applied once to a batch of d unit states
    and the two unit forcings, which gives S_k = A S_{k-1} + b0 f_{k-1} + b1 f_k
    with A of shape (d, d, N) and b0, b1 of shape (d, N).
    """
    step = _scheme(method, solver, alpha, nodes, h, fully_implicit)
    if method is Method.YA:
        d = 1
    elif solver == "trapezoid" and not fully_implicit:
        d = 4
        euler = _scheme(method, "euler", alpha, nodes, h, False)
    else:
        d = 2
    probe = np.eye(d + 2)
    x = [np.repeat(probe[:, r : r + 1], len(nodes), axis=1) for r in range(d)]
    f_prev, f_curr = probe[:, d : d + 1], probe[:, d + 1 :]
    if d == 1:
        image = [step(x[0], None, f_prev, f_curr, None)[0]]
    elif d == 2:
        image = step(x[0], x[1], f_prev, f_curr, None)
    else:
        e1, e2 = euler(x[2], x[3], f_prev, f_curr, None)
        image = [*step(x[0], x[1], f_prev, f_curr, e2), e1, e2]
    image = np.stack(image)  # image[r, p] is row r of the step applied to probe p
    return image[:, :d], image[:, d], image[:, d + 1]


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
    ws = rule.scaled_weights
    h = grid.step
    n = grid.count
    f, yp0 = _forcing_samples(method, signal, grid.times(), h)

    A, b0, b1 = _system(method, solver, a, rule.nodes, h, fully_implicit)
    d = len(A)
    B = _BLOCK
    # drive each step by the difference and the sum of its two forcing
    # samples: the raw (f_{k-1}, f_k) taps nearly cancel and lose digits
    gains, drives = [], []
    for gain, drive in ((0.5 * (b1 - b0), f[1:] - f[:-1]), (0.5 * (b1 + b0), f[1:] + f[:-1])):
        if np.any(gain):
            gains.append(gain)
            drives.append(drive)
    steps = n - 1
    blocks = -(-steps // B)
    u = np.zeros((blocks * B, len(gains)))
    u[:steps] = np.stack(drives, axis=1)
    u = u.reshape(blocks, B, len(gains))

    # Products go through einsum, not BLAS: multithreaded BLAS spins its
    # workers between these small calls and doubles the CPU time.
    # free[j-1] = W . (A^j)[0] for j = 1..B maps a block's start state to its
    # outputs; impulse[l] = A^l [gains] for l = 0..B-1 is the state l steps
    # after a unit drive.  Both double their known range per pass, and
    # power ends as A^B.
    free = np.empty((B, d, order))
    free[0] = A[0] * ws
    impulse = np.empty((B, d, len(gains), order))
    impulse[0] = np.stack(gains, axis=1)
    power = A
    m = 1
    while m < B:
        free[m : 2 * m] = np.einsum("jcn,csn->jsn", free[:m], power)
        impulse[m : 2 * m] = np.einsum("rcn,jcqn->jrqn", power, impulse[:m])
        power = np.einsum("rcn,csn->rsn", power, power)
        m *= 2
    # forced output of step j in a block: sum_m g_(j-m) u_m, g_l = W . impulse[l][0]
    g = np.einsum("lqn,n->lq", impulse[:, 0], ws)
    lag = np.arange(B)[:, None] - np.arange(B)[None, :]
    forced = np.where((lag >= 0)[:, :, None], g[np.maximum(lag, 0)], 0.0)

    start = initial_state(method, a, order, yp0)
    # the Euler co-state starts from the same state
    S = np.stack([start.x1, start.x2, start.x1, start.x2][:d])
    y = np.einsum("bmq,jmq->bj", u, forced)
    y[0] += np.einsum("jrn,rn->j", free, S)
    for b in range(1, blocks):
        # end state of block b-1: A^B S + sum_m A^(B-1-m) [gains] u_m
        S = np.einsum("rcn,cn->rn", power, S) + np.einsum("lq,lrqn->rn", u[b - 1, ::-1], impulse)
        y[b] += np.einsum("jrn,rn->j", free, S)
    out = np.zeros(n)
    out[1:] = y.ravel()[:steps]
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
    rate = z * z if method in (Method.YA, Method.ISDR) else z
    if method is Method.YA:
        kernel = lambda u: np.exp(-u)
    else:
        kernel = np.cos if method is Method.CDR else np.sin

    def integrand(tau):
        return kernel((t - tau) * rate) * yp(tau)

    panels = max(4, math.ceil(8.0 * t * rate / (2.0 * math.pi)))
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
