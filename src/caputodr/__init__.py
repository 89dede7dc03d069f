"""Caputo fractional derivatives of order 0 < alpha < 1 via diffusive representations.

The public names load on first use (PEP 562), so ``import caputodr`` imports no numpy: the CLI
module gets to set BLAS defaults before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    **dict.fromkeys(
        ("DiffusiveState", "Method", "Signal", "TimeGrid", "advance_euler", "advance_trapezoid",
         "caputo_derivative", "initial_state", "kernel_reference", "max_error"),
        "diffusive",
    ),
    **dict.fromkeys(
        ("TestCase", "builtin_cases", "caputo_l1", "exact_bessel", "exact_power", "exact_sin"), "oracle"
    ),
    **dict.fromkeys(("QuadratureRule", "gauss_laguerre"), "quadrature"),
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
