"""Generalized Gauss-Laguerre quadrature for the weight z^gamma * exp(-z).

Rules are built with the Golub-Welsch procedure: nodes are eigenvalues of
the symmetric tridiagonal Jacobi matrix of the recurrence, weights come
from the first components of its normalized eigenvectors.  The eigenproblem
is solved by an implicit-shift QL sweep that tracks only those first
components; tracking them through the rotations keeps their *relative*
accuracy even when they shrink to ~1e-130, which dense eigensolvers do not
(they only deliver absolute accuracy, so w_i * exp(z_i) would be garbage at
large nodes).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "jacobi_matrix", "gauss_laguerre", "integrate"]

_MAX_QL_SWEEPS = 30


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


def jacobi_matrix(order: int, gamma: float):
    """Diagonal and off-diagonal of the Jacobi matrix for z^gamma exp(-z).

    diag[k] = 2k + gamma + 1, offdiag[k] = sqrt(k (k + gamma)).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if gamma <= -1.0:
        raise ValueError(f"gamma must exceed -1, got {gamma:g}")
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + gamma + 1.0
    j = np.arange(1, order, dtype=float)
    offdiag = np.sqrt(j * (j + gamma))
    return diag, offdiag


def _tridiag_eigen(diag, offdiag):
    """Eigenvalues and first eigenvector components, implicit-shift QL.

    EISPACK gausq2/imtql2 lineage.  Off-diagonals are declared negligible
    relative to their neighbouring diagonals; each eigenvalue gets at most
    _MAX_QL_SWEEPS sweeps before the iteration is abandoned.
    """
    n = len(diag)
    d = np.array(diag, dtype=float)
    e = np.zeros(n)
    e[: n - 1] = offdiag
    v = np.zeros(n)
    v[0] = 1.0
    eps = np.finfo(float).eps

    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if sweeps == _MAX_QL_SWEEPS:
                raise RuntimeError(
                    f"QL iteration failed to converge for eigenvalue {l} of {n}"
                )
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                # Form the rotation from the larger of f, g to avoid overflow.
                if abs(f) < abs(g):
                    s = f / g
                    r = math.hypot(s, 1.0)
                    e[i + 1] = g * r
                    c = 1.0 / r
                    s *= c
                else:
                    c = g / f
                    r = math.hypot(c, 1.0)
                    e[i + 1] = f * r
                    s = 1.0 / r
                    c *= s
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = v[i + 1]
                v[i + 1] = s * v[i] + c * f
                v[i] = c * v[i] - s * f
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    order = np.argsort(d)
    return d[order], v[order]


def gauss_laguerre(order: int, gamma: float) -> QuadratureRule:
    """Build the N-point generalized Gauss-Laguerre rule for z^gamma exp(-z).

    Exact (up to rounding) on polynomials of degree <= 2N-1.  Scaled weights
    w_i * exp(z_i) are exponentiated once from
    log W_i = log Gamma(gamma+1) + 2 log|v_i1| + z_i, never forming exp(z_i)
    on its own.
    """
    diag, offdiag = jacobi_matrix(order, gamma)
    nodes, first = _tridiag_eigen(diag, offdiag)
    # Components below the smallest normal double have lost relative
    # precision (the top weight is already off by 6e-3 at order 380).
    smallest = float(np.min(np.abs(first)))
    if smallest < np.finfo(float).tiny:
        raise RuntimeError(
            f"eigenvector components underflowed at order {order}: the smallest, "
            f"{smallest:.3g}, is subnormal or zero; rule construction is "
            "unreliable past roughly order 300"
        )
    log_w = math.lgamma(gamma + 1.0) + 2.0 * np.log(np.abs(first))
    weights = np.exp(log_w)
    scaled = np.exp(log_w + nodes)
    if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
        raise RuntimeError("computed nodes are not strictly increasing and positive")
    for arr in (nodes, weights, scaled):
        arr.flags.writeable = False
    return QuadratureRule(
        gamma=float(gamma),
        order=int(order),
        nodes=nodes,
        weights=weights,
        scaled_weights=scaled,
    )


def integrate(rule: QuadratureRule, f) -> float:
    """Apply the rule to ``f``: sum_i w_i f(z_i).

    A NaN from the integrand is reported as an evaluation error instead of
    silently propagating into the sum.
    """
    values = np.array([f(z) for z in rule.nodes], dtype=float)
    if np.any(np.isnan(values)):
        bad = rule.nodes[np.isnan(values)][0]
        raise ValueError(f"integrand evaluated to NaN at node z={bad:g}")
    return float(rule.weights @ values)
