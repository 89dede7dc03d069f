"""Generalized Gauss-Laguerre quadrature for the weight z^gamma * exp(-z).

Nodes follow Golub and Welsch: they are the eigenvalues of the symmetric
tridiagonal Jacobi matrix of the three-term recurrence, taken from LAPACK
(``numpy.linalg.eigvalsh``) and polished by one Newton step on the
recurrence.  No eigenvectors are computed.  Weights are the Christoffel
numbers w_i = 1 / sum_{k<N} p_k(z_i)^2 of the orthonormal polynomials p_k
(Hale and Townsend), summed with the scale kept as a logarithm.  One
recurrence pass at the eigenvalues gives the Newton step, the sum and its
derivative, which moves the sum to the polished nodes to first order in
the ~1e-13 step.  The exp-scaled weights w_i * exp(z_i) are formed in log
space, so they stay accurate where w_i underflows (from order ~200 on).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_laguerre"]

# Orders kept to _MASS_TOL: of 39 gamma in [-0.95, 0.95] none fails at 1000, one at 1100.
_MAX_ORDER = 1000
_MASS_TOL = 1e-12
_LOG_1E100 = 100.0 * math.log(10.0)


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable N-point rule for integrating f(z) z^gamma exp(-z) on [0, inf).

    ``scaled_weights`` holds w_i * exp(z_i), assembled in log space; these
    multiply raw integrand samples when the exp(-z) damping is part of the
    integrand being approximated rather than of the weight.
    """

    gamma: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    scaled_weights: np.ndarray


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or other non-integer raises ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        shown = value.item() if isinstance(value, np.generic) else value  # numpy 2 reprs np.float64(2.5)
        raise ValueError(f"{name} must be an integer, got {name}={shown!r}") from None


def _recurrence(z, diag, offdiag):
    """Newton step q_N(z)/q_N'(z), log T(z) and T'(z)/T(z) at each node.

    q_k are the polynomials orthonormal for z^gamma exp(-z) / Gamma(gamma+1)
    (q_0 = 1), run through the three-term recurrence of the Jacobi matrix,
    with q_N left unnormalized (its roots and q_N/q_N' do not depend on the
    scale).  T = sum_{k<N} q_k^2 is the Christoffel sum and T' = sum 2 q_k q_k'.
    Wherever |q_k| passes 1e100 the running values are scaled by 1e-100 and
    the scale is carried as a logarithm, so nothing overflows.
    """
    e = [0.0] + offdiag.tolist()
    q_prev, q = np.zeros_like(z), np.ones_like(z)
    dq_prev, dq = np.zeros_like(z), np.zeros_like(z)
    total, half_slope = np.ones_like(z), np.zeros_like(z)
    log_scale = np.zeros_like(z)
    for k, a in enumerate(diag[:-1].tolist()):
        shift = z - a
        q_prev, q = q, (shift * q - e[k] * q_prev) / e[k + 1]
        dq_prev, dq = dq, (q_prev + shift * dq - e[k] * dq_prev) / e[k + 1]
        big = np.abs(q) > 1e100
        if big.any():
            for arr in (q_prev, q, dq_prev, dq):
                arr[big] *= 1e-100
            total[big] *= 1e-200
            half_slope[big] *= 1e-200
            log_scale[big] += _LOG_1E100
        total += q * q
        half_slope += q * dq
    a = diag[-1]
    q_top = (z - a) * q - e[-1] * q_prev
    dq_top = q + (z - a) * dq - e[-1] * dq_prev
    return q_top / dq_top, np.log(total) + 2.0 * log_scale, 2.0 * half_slope / total


def gauss_laguerre(order: int, gamma: float) -> QuadratureRule:
    """Build the N-point generalized Gauss-Laguerre rule for z^gamma exp(-z).

    Exact (up to rounding) on polynomials of degree <= 2N-1.  Scaled weights
    w_i * exp(z_i) are exponentiated once from
    log W_i = log Gamma(gamma+1) + z_i - log sum_k q_k(z_i)^2, never forming
    exp(z_i) on its own.  Raises ValueError for an order that is not an
    integer in [1, 1000], a gamma that is not finite and above -1, and where a
    value overflows (the scaled weights do from gamma ~150 at order 5), and
    RuntimeError when the weights miss Gamma(gamma+1) by more than 1e-12
    relative (seen for some gamma past order 1000).
    """
    order = _integer("order", order)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > _MAX_ORDER:
        raise ValueError(
            f"order {order} exceeds {_MAX_ORDER}: higher orders are not kept to "
            f"the {_MASS_TOL:g} weight-sum tolerance"
        )
    if not -1.0 < gamma < math.inf:  # written so that nan fails it
        raise ValueError(f"gamma must exceed -1 and be finite, got {gamma:g}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            k = np.arange(order, dtype=float)  # the Jacobi matrix of z^gamma exp(-z)
            diag = 2.0 * k + gamma + 1.0
            offdiag = np.sqrt(k[1:] * (k[1:] + gamma))
            matrix = np.diag(diag)
            np.fill_diagonal(matrix[1:], offdiag)  # lower triangle, as eigvalsh reads it
            guess = np.linalg.eigvalsh(matrix)
            step, log_sum, dlog_sum = _recurrence(guess, diag, offdiag)
            nodes = guess - step
            log_sum -= step * dlog_sum  # log T at the nodes, to first order in the step
            log_w = math.lgamma(gamma + 1.0) - log_sum
            weights = np.exp(log_w)
            scaled = np.exp(log_w + nodes)
    except FloatingPointError:
        raise ValueError(f"the order-{order} rule for gamma={gamma:g} overflows double precision") from None
    if not (nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)):
        raise RuntimeError("computed nodes are not strictly increasing and positive")
    mass_error = math.fsum(np.exp(-log_sum).tolist()) - 1.0
    if not abs(mass_error) <= _MASS_TOL:
        raise RuntimeError(
            f"weights of the order-{order} rule sum to Gamma(gamma+1) only to "
            f"{mass_error:.3g} relative (tolerance {_MASS_TOL:g})"
        )
    for arr in (nodes, weights, scaled):
        arr.flags.writeable = False
    return QuadratureRule(
        gamma=float(gamma),
        order=order,
        nodes=nodes,
        weights=weights,
        scaled_weights=scaled,
    )
