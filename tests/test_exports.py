"""Every name a sympspin module lists in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import sympspin

MODULES = sorted(m.name for m in pkgutil.iter_modules(sympspin.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"sympspin.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
