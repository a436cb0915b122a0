"""Every name a covcon module exports in __all__ exists, so deleting a
public name cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import covcon

MODULES = ["covcon"] + [f"covcon.{m.name}" for m in pkgutil.iter_modules(covcon.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
