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
is the rule on one row.  For x1' = x2, x2' = -s x1 + g f' (s = rate^2, from
``Method.rate``, and g = kappa, or kappa z^2 for ISDR) the update is

    x2 <- ((1 - theta(1-theta) s h^2) x2_old - s*h*x1_old + g*df) / (1 + theta^2 s h^2)
    x1 <- x1_old + h * ((1-theta) x2_old + theta * ahead)

where ``ahead`` is the old x2 for the semi-implicit Euler and, for the
trapezoid, the x2 of an Euler co-state advanced alongside.

``_scheme`` is the single definition of every update: for each (method,
solver) it returns one step, which drives both ``advance_euler``/
``advance_trapezoid`` and ``caputo_derivative``.  The trapezoid's Euler
co-state is the Euler step composed in, not a third copy of its formulas.

For a fixed step h every scheme is linear and time invariant: the state S
(x1 for YA, (x1, x2) otherwise, plus the Euler co-state for the trapezoid)
obeys S_k = A S_{k-1} + b0 f_{k-1} + b1 f_k node by node, and the output is
sum_i W_i x1_i.  ``caputo_derivative`` reads (A, b0, b1) off ``_scheme``
and cuts the grid into blocks of _BLOCK = 64 steps.  A block's outputs are
its start state's free response plus its forcing convolved with the
aggregate impulse response.  Block start states obey a linear recurrence,
S_(b+1) = A^64 S_b + c_b, which a doubling (parallel-prefix) scan solves
for _CHUNK = 256 blocks at a time in 8 batched products.  For n time points
and N nodes that is O(n * N) flops in O(n / 16384) Python iterations, with
O(256 * d * N) working memory for a d-dimensional state.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import _integer, gauss_laguerre

# Rules are immutable (their arrays are read-only), so repeated runs over
# the same (order, exponent) pair reuse one construction.
_cached_rule = functools.lru_cache(maxsize=64)(gauss_laguerre)

# Time steps per block; the tables hold O(_BLOCK * d * N) floats.  On n = 1e4
# compare runs, 32 and 128 both ran 15-40% slower than 64.
_BLOCK = 64
# Blocks per doubling scan, which holds (_CHUNK + 1) * d * N floats.
_CHUNK = 256
# Largest m*n*k matrix product numpy's OpenBLAS runs on one thread, given a
# right operand in C order (in F order, one of this size ran on two).  A
# product that wakes the sleeping second thread waits 8-17 ms for it on a
# 2-vCPU VM.
_ONE_THREAD = 1 << 19

__all__ = [
    "Method",
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
        if self is Method.SDR:
            return a
        gamma = a - 1.0 if self is Method.CDR else 2.0 * a - 1.0
        if gamma == -1.0:  # z^-1 exp(-z) is not integrable
            raise ValueError(f"alpha={a!r} is too small for {self.value}: its weight exponent rounds to -1")
        return gamma

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

    def rate(self, z):
        """Rate of the state at node z (YA's decay, the others' angular frequency): z, or z^2 for YA and ISDR."""
        return z if self in (Method.CDR, Method.SDR) else z * z

    @property
    def forcing(self) -> str:
        """Which samples drive the discrete update: "derivative" or "value"."""
        return "derivative" if self in (Method.YA, Method.CDR) else "value"


def _alpha_value(alpha) -> float:
    """The order alpha of the derivative as a float, checked to lie strictly inside (0, 1)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {a!r}")
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = (k-1) h on [0, T] with h = T / (n-1); its last point is T exactly."""

    horizon: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:  # written so that nan fails it
            raise ValueError(f"horizon must be positive and finite, got {float(self.horizon)!r}")
        count = _integer("count", self.count)
        if count < 2:
            raise ValueError(f"count must be at least 2, got {count!r}")

    @property
    def step(self) -> float:
        return self.horizon / (self.count - 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.count)  # arange(n) * step, with T itself last


@dataclass(frozen=True)
class Signal:
    """A test function y, optionally with its analytic derivative.

    Both callables take a numpy array of times and return one value per
    element; wrap a scalar-only function in ``np.vectorize``.  Forward
    differences of y stand in for y' exactly when ``y_prime`` is None.
    ``from_samples`` wraps tabulated data after checking its grid.
    """

    y: Callable[[np.ndarray], np.ndarray]
    y_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def from_samples(cls, times, values) -> "Signal":
        """Signal backed by uniformly spaced samples, read only at their own times.

        Needs at least 2 samples, every t and y finite, and t strictly
        increasing from t = 0 with spacing uniform to 1e-12 relative.  y of
        the sample times to that tolerance is the samples, read-only.
        """
        times = np.asarray(times, dtype=float)
        values = np.array(values, dtype=float)  # a copy: it is made read-only below
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise ValueError("need two equal-length 1-d arrays of at least 2 samples")
        bad = ~(np.isfinite(times) & np.isfinite(values))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"sample row {i + 1} is not finite: t={float(times[i])!r}, y={float(values[i])!r}")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        t0 = times[0]
        h = (times[-1] - t0) / (len(times) - 1)
        expected = t0 + h * np.arange(len(times))
        tol = 1e-12 * max(abs(times[-1]), h)
        if np.max(np.abs(times - expected)) > tol:
            raise ValueError("sample grid spacing is not uniform to 1e-12 relative")
        if t0 != 0.0:
            raise ValueError("sample grid must start at t=0")
        values.flags.writeable = False

        def read(t):
            t = np.asarray(t, dtype=float)
            if t.shape != times.shape:
                raise ValueError(f"a sampled signal reads only its {len(times)} sample times, got shape {t.shape}")
            off = ~(np.abs(t - times) <= tol)  # written so that nan fails it
            if off.any():
                i = int(np.argmax(off))
                raise ValueError(f"t={float(t[i])!r} is not sample time {i + 1} ({float(times[i])!r})")
            return values

        return cls(y=read)


@dataclass(frozen=True)
class DiffusiveState:
    """States x1 (= w at each node) and their time derivatives x2 at one time step."""

    x1: np.ndarray
    x2: np.ndarray


def initial_state(method: Method, alpha, order: int, initial_slope: float = 0.0) -> DiffusiveState:
    """State at t_1 = 0: zeros, except CDR starts x2 at kappa * y'(0)."""
    x1 = np.zeros(order)
    if method is Method.CDR:
        x2 = np.full(order, method.forcing_coefficient(alpha) * initial_slope)
    else:
        x2 = np.zeros(order)
    return DiffusiveState(x1=x1, x2=x2)


def _scheme(method: Method, solver: str, alpha, nodes: np.ndarray, h: float):
    """Build the step of one scheme: the single definition of its update formulas.

    Both solvers are the theta-rule, theta = 1 for "euler" and 1/2 for
    "trapezoid"; the per-node coefficients are computed once.  The returned
    ``step(x1, x2, f_prev, f_curr, companion)`` maps the states at step k-1
    to those at step k, given the forcing at t_{k-1} and t_k.  ``companion``
    is the Euler co-state's x2 at step k; only the trapezoid x1 row reads
    it, where Euler's reads the old x2.  YA has no x2 row and passes x2
    through.
    """
    theta = 1.0 if solver == "euler" else 0.5
    # (1 - theta) old + theta new = theta (new + lag old)
    lag = (1.0 - theta) / theta
    th = theta * h
    kappa = method.forcing_coefficient(alpha)
    rate = method.rate(nodes)
    if method is Method.YA:
        damp = 1.0 / (1.0 + th * rate)
        fac = 1.0 - (1.0 - theta) * h * rate
        hk = th * kappa

        def step(x1, x2, f_prev, f_curr, companion):
            return (fac * x1 + hk * (f_curr + lag * f_prev)) * damp, x2

        return step

    s = rate * rate
    gain = kappa * nodes * nodes if method is Method.ISDR else kappa
    sh = s * h
    damp = 1.0 / (1.0 + theta * theta * s * h * h)
    fac = 1.0 - theta * (1.0 - theta) * s * h * h

    def step(x1, x2, f_prev, f_curr, companion):
        x2_new = (fac * x2 - sh * x1 + gain * (f_curr - f_prev)) * damp
        ahead = companion if theta < 1.0 else x2
        return x1 + th * (ahead + lag * x2), x2_new

    return step


def _advance(step, state: DiffusiveState, nodes: np.ndarray, forcing_prev, forcing_curr, companion):
    if len(state.x1) != len(nodes):
        raise ValueError("state and node arrays disagree in length")
    x1, x2 = step(state.x1, state.x2, forcing_prev, forcing_curr, companion)
    # YA passes x2 through; the new state must not share the old one's array
    return DiffusiveState(x1=x1, x2=x2.copy() if x2 is state.x2 else x2)


def advance_euler(
    method: Method,
    alpha,
    state: DiffusiveState,
    nodes: np.ndarray,
    grid: TimeGrid,
    forcing_prev: float,
    forcing_curr: float,
) -> DiffusiveState:
    """One backward-Euler step of the state system from step k-1 to k.

    ``forcing_prev``/``forcing_curr`` are y'(t_{k-1}), y'(t_k) for YA and
    CDR and y(t_{k-1}), y(t_k) for SDR and ISDR.
    """
    step = _scheme(method, "euler", alpha, nodes, grid.step)
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
) -> DiffusiveState:
    """One trapezoidal step; ``euler_state`` is the Euler co-state at step k."""
    step = _scheme(method, "trapezoid", alpha, nodes, grid.step)
    return _advance(step, state, nodes, forcing_prev, forcing_curr, euler_state.x2)


def _sample(func, times: np.ndarray) -> np.ndarray:
    """Evaluate ``func`` once on the whole array ``times``.

    The callable must return one finite value per element; any other shape,
    or a first inf or nan, raises ``ValueError`` naming it (and the value and
    its time).  Its own exceptions propagate unchanged.
    """
    out = np.asarray(func(times), dtype=float)
    name = getattr(func, "__qualname__", None) or repr(func)
    if out.shape != times.shape:
        raise ValueError(f"{name} returned shape {out.shape} for times of shape {times.shape}")
    return _finite(out, times, f"{name} returned")


def _finite(values: np.ndarray, times: np.ndarray, what: str) -> np.ndarray:
    """``values``, checked finite: the first inf or nan raises ``ValueError``, naming it and its time after ``what``."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"{what} {float(values.flat[i])!r} at t={float(times.flat[i])!r}")
    return values


def _forcing_samples(method: Method, signal: Signal, times: np.ndarray, h: float) -> np.ndarray:
    """The one forcing the method's update reads, sampled on ``times``.

    That is y for SDR and ISDR, and y' for YA and CDR: the analytic y'
    when the signal has one, else y's forward differences, the last point
    repeating the one before it.
    """
    if method.forcing == "value":
        return _sample(signal.y, times)
    if signal.y_prime is not None:
        return _sample(signal.y_prime, times)
    y = _sample(signal.y, times)
    with np.errstate(over="ignore"):  # an overflowing slope makes the derivative non-finite, which is refused
        slope = np.diff(y) / h
    return np.append(slope, slope[-1])


def _system(method: Method, solver: str, alpha, nodes: np.ndarray, h: float):
    """Per-node (A, b0, b1) of the step ``caputo_derivative`` runs, read off ``_scheme``.

    The state S is x1 for YA, (x1, x2) for the other methods, and
    (x1, x2, e1, e2) for the trapezoid that consumes its Euler co-state
    (e1, e2).  The composed step is applied once to a batch of d unit states
    and the two unit forcings, which gives S_k = A S_{k-1} + b0 f_{k-1} + b1 f_k
    with A of shape (d, d, N) and b0, b1 of shape (d, N).  A step so long
    that a coefficient overflows raises ``ValueError``.
    """
    d = 1 if method is Method.YA else 4 if solver == "trapezoid" else 2
    probe = np.eye(d + 2)
    x = [np.repeat(probe[:, r : r + 1], len(nodes), axis=1) for r in range(d)]
    f_prev, f_curr = probe[:, d : d + 1], probe[:, d + 1 :]
    # an overflow can also leave the coefficients finite: 1 / (1 + inf) is 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            step = _scheme(method, solver, alpha, nodes, h)
            if d == 1:
                image = [step(x[0], None, f_prev, f_curr, None)[0]]
            elif d == 2:
                image = step(x[0], x[1], f_prev, f_curr, None)
            else:
                e1, e2 = _scheme(method, "euler", alpha, nodes, h)(x[2], x[3], f_prev, f_curr, None)
                image = [*step(x[0], x[1], f_prev, f_curr, e2), e1, e2]
    except FloatingPointError:
        raise ValueError(
            f"{method.value} {solver} step coefficients overflow at N={len(nodes)}, h={h:g}; shorten the step"
        ) from None
    image = np.stack(image)  # image[r, p] is row r of the step applied to probe p
    return image[:, :d], image[:, d], image[:, d + 1]


def _plan(method: Method, solver: str, alpha: float, order: int, h: float):
    """Tables of one scheme, rule and step: (taps, A^B, reach, toeplitz, readout).

    taps are the ufuncs forming each drive column from adjacent forcing
    samples.  reach maps a block's B*q drives to the state they add by its
    end, node by node, and toeplitz to its forced outputs; readout maps a
    start state (N*d) to the block's free outputs.
    """
    rule = _cached_rule(order, method.weight_exponent(alpha))
    ws = rule.scaled_weights
    A, b0, b1 = _system(method, solver, alpha, rule.nodes, h)
    d, B = len(A), _BLOCK
    # drive each step by the difference and the sum of its two forcing
    # samples: the raw (f_{k-1}, f_k) taps nearly cancel and lose digits
    taps = [(gain, op) for gain, op in ((0.5 * (b1 - b0), np.subtract), (0.5 * (b1 + b0), np.add)) if np.any(gain)]
    q, w = len(taps), d + len(taps)
    # A d x d matrix per node on the leading axis makes each product a batched
    # matmul.  table[:, :, l] = A^l [I | gains], l < B, doubles its range per
    # pass and A ends as A^B, squared by einsum: with matmul's fused multiply-
    # adds, outputs left the per-block loop's by 1.4e-13 max|y|, not 2e-14.
    A = step = np.moveaxis(A, -1, 0)
    table = np.empty((order, d, B, w))
    table[:, :, 0, :d] = np.eye(d)
    table[:, :, 0, d:] = np.moveaxis(np.stack([gain for gain, _ in taps], axis=1), -1, 0)
    flat = table.reshape(order, d, B * w)
    m = 1
    while m < B:
        flat[:, :, m * w : 2 * m * w] = A @ flat[:, :, : m * w]
        A = np.einsum("nrc,ncs->nrs", A, A)
        m *= 2
    reach = table[:, :, ::-1, d:].reshape(order, d, B * q)
    # free output j of a block is W . (A^(j+1) S)[0]; forced output j is
    # sum_m g_(j-m) u_m with g_l = W . (A^l [gains])[0]
    free = (table[:, 0, :, :d] @ step) * ws[:, None, None]
    readout = free.transpose(0, 2, 1).reshape(order * d, B)
    g = np.einsum("n,nlq->lq", ws, table[:, 0, :, d:])
    lag = np.arange(B)[:, None] - np.arange(B)[None, :]
    forced = np.where((lag >= 0)[:, :, None], g[np.maximum(lag, 0)], 0.0)
    # in C order, so that u @ toeplitz stays on one thread (see _ONE_THREAD)
    toeplitz = np.ascontiguousarray(forced.transpose(1, 2, 0).reshape(B * q, B))
    return tuple(op for _, op in taps), A, reach, toeplitz, readout


# Repeated calls on one grid reuse the tables, ~1.2 MB for the N = 160 trapezoid.
_cached_plan = functools.lru_cache(maxsize=2)(_plan)


def caputo_derivative(method: Method, solver: str, alpha, order: int, grid: TimeGrid, signal: Signal) -> np.ndarray:
    """Approximate the Caputo derivative of ``signal`` on every grid point.

    Builds the Gauss-Laguerre rule for the method's weight exponent, steps
    the per-node states across the grid with the requested solver ("euler"
    or "trapezoid"), and assembles sum_i W_i x1_i at each step, where W_i
    are the exp-scaled weights.  The t = 0 entry is exactly zero.  A value
    that overflows (from samples whose slope or difference does) raises
    ``ValueError`` naming the first and its time.
    """
    if solver not in ("euler", "trapezoid"):
        raise ValueError(f"solver must be 'euler' or 'trapezoid', got {solver!r}")
    a = _alpha_value(alpha)
    n, h = grid.count, grid.step
    taps, power, reach, toeplitz, readout = _cached_plan(method, solver, a, order, h)
    d, q, B = reach.shape[1], len(taps), _BLOCK
    times = grid.times()
    f = _forcing_samples(method, signal, times, h)
    blocks = -(-(n - 1) // B)
    # blocks per output product, so that each stays on one BLAS thread
    rows = max(1, _ONE_THREAD // (B * max(order * d, B * q)))

    # only CDR reads the initial slope, and its forcing is y'
    start = initial_state(method, a, order, f[0])
    # the Euler co-state starts from the same state
    S = np.stack([start.x1, start.x2, start.x1, start.x2][:d], axis=1)[:, :, None]
    # outputs land in place: out[1 + bB + j] is step j + 1 of block b
    out = np.empty(1 + blocks * B)
    out[0] = 0.0
    y = out[1:].reshape(blocks, B)
    # one buffer serves every chunk: a fresh one each page-faulted at n = 1e5
    chunk = np.empty((order, d, min(blocks, _CHUNK) + 1))
    # an overflow leaves inf or nan in the outputs, which are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, blocks, _CHUNK):
            b = min(_CHUNK, blocks - c)
            # the chunk's drives, a row of B*q per block, zero past the last step
            lo, hi = c * B, min((c + b) * B, n - 1)
            u = np.zeros((b, B * q))
            for col, op in enumerate(taps):
                op(f[lo + 1 : hi + 1], f[lo:hi], out=u.reshape(b * B, q)[: hi - lo, col])
            # X[:, :, i] is the start state of block c + i.  A block's end state is
            # A^B times its start plus what its drives add, a linear recurrence:
            # after the doubling pass of span s, X[:, :, i] sums the drives of the
            # 2s blocks before it, so log2(b) passes give every start state.
            X = chunk[:, :, : b + 1]
            X[:, :, :1] = S
            np.matmul(reach, u.T, out=X[:, :, 1:])
            X[:, :, 1:2] += power @ S
            span, s = power, 1
            while s < b:
                X[:, :, 1 + s :] += span @ X[:, :, 1:-s]
                span, s = span @ span, 2 * s
            for i in range(0, b, rows):
                j = min(i + rows, b)
                start_states = X[:, :, i:j].reshape(order * d, j - i)
                np.matmul(u[i:j], toeplitz, out=y[c + i : c + j])
                y[c + i : c + j] += start_states.T @ readout
            S = X[:, :, b:].copy()
    return _finite(out[:n], times, f"{method.value} {solver} derivative overflows to")


# 10-point Gauss-Legendre rule, built on first use: importing makes no LAPACK call.
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(10))
# Panel count past which kernel_reference stops refining and raises.
_MAX_PANELS = 1 << 20


def _composite_gauss(func, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    points, weights = _gauss_legendre()
    pts = mid[:, None] + half[:, None] * points[None, :]
    vals = _sample(func, pts.ravel()).reshape(pts.shape)
    return float(np.sum(half[:, None] * weights[None, :] * vals))


def kernel_reference(
    method: Method,
    alpha,
    z: float,
    t: float,
    signal: Signal,
    tol: float = 1e-10,
) -> float:
    """Direct evaluation of the defining state integral w(z, t).

    Testing oracle, independent of the stepping: the time integral (e.g.
    the cosine convolution against y' for CDR) is computed by composite
    Gauss-Legendre panels, at least 8 per oscillation period, doubled until
    two successive refinements agree within ``tol``.
    """
    if not 0.0 < z < math.inf:  # written so that nan fails it
        raise ValueError(f"z must be positive and finite, got z={float(z)!r}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be non-negative and finite, got t={float(t)!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got tol={float(tol)!r}")
    if signal.y_prime is None:
        raise ValueError("kernel_reference requires a signal with an analytic derivative")
    a = _alpha_value(alpha)
    if t == 0.0:
        return 0.0
    yp = signal.y_prime
    rate = method.rate(z)
    kernel = {Method.YA: lambda u: np.exp(-u), Method.CDR: np.cos}.get(method, np.sin)

    def integrand(tau):
        return kernel((t - tau) * rate) * yp(tau)

    need = 8.0 * t * rate / (2.0 * math.pi)  # panels for 8 per oscillation period
    if not need <= _MAX_PANELS:  # written so that inf fails it
        raise ValueError(f"kernel_reference needs {need:.0f} panels at z={z:g}, t={t:g}, over the limit {_MAX_PANELS}")
    panels = max(4, math.ceil(need))
    prev = _composite_gauss(integrand, 0.0, t, panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        curr = _composite_gauss(integrand, 0.0, t, panels)
        if abs(curr - prev) <= tol:
            break
        prev = curr
    else:
        raise RuntimeError(f"kernel_reference did not reach tol={tol:g} within {_MAX_PANELS} panels")

    kappa = method.forcing_coefficient(a)
    return kappa * curr / z if method is Method.SDR else kappa * curr


def max_error(approx, exact) -> float:
    """Largest pointwise absolute difference between two grid functions."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if approx.shape != exact.shape:
        raise ValueError("arrays must have identical shapes")
    return float(np.max(np.abs(approx - exact)))
