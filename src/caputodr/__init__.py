"""Caputo fractional derivatives of order 0 < alpha < 1 via diffusive representations."""

from .diffusive import (
    DiffusiveState,
    Method,
    Signal,
    TimeGrid,
    advance_euler,
    advance_trapezoid,
    caputo_derivative,
    initial_state,
    kernel_reference,
    max_error,
)
from .oracle import TestCase, builtin_cases, caputo_l1, exact_bessel, exact_power, exact_sin
from .quadrature import QuadratureRule, gauss_laguerre, jacobi_matrix

__version__ = "0.1.0"

__all__ = [
    "DiffusiveState",
    "Method",
    "QuadratureRule",
    "Signal",
    "TestCase",
    "TimeGrid",
    "advance_euler",
    "advance_trapezoid",
    "builtin_cases",
    "caputo_derivative",
    "caputo_l1",
    "exact_bessel",
    "exact_power",
    "exact_sin",
    "gauss_laguerre",
    "initial_state",
    "jacobi_matrix",
    "kernel_reference",
    "max_error",
    "__version__",
]
