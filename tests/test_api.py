import importlib

import pytest

MODULES = ["caputodr"] + [f"caputodr.{name}" for name in ("diffusive", "oracle", "quadrature", "report", "specfun")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `from ... import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
