"""Every name a sympspin module lists in `__all__` resolves, and omega is
decided in one module: no exported callable takes a `space`, and only
`symplectic.py` names the omega matrices."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sympspin

MODULES = sorted(m.name for m in pkgutil.iter_modules(sympspin.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"sympspin.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _callables(obj):
    """obj itself if callable, and for a class every function defined on it."""
    if inspect.isclass(obj):
        for member in vars(obj).values():
            fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
            if inspect.isfunction(fn):
                yield fn
    if callable(obj):
        yield obj


@pytest.mark.parametrize("module", MODULES)
def test_no_callable_takes_a_space(module):
    # omega comes from the l of a function's arguments, never from a parameter;
    # checked for every function and class the module defines, exported or not
    mod = importlib.import_module(f"sympspin.{module}")
    defined = [obj for obj in vars(mod).values()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__]
    offenders = []
    for obj in defined:
        for fn in _callables(obj):
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            if "space" in params:
                offenders.append(fn.__qualname__)
    assert offenders == []


def test_no_registry_check_takes_a_space():
    from sympspin.verify import SUITES

    for suite in SUITES.values():
        for check in suite.checks:
            assert "space" not in inspect.signature(check.holds).parameters, check.name


def test_only_symplectic_reads_the_omega_matrices():
    src = Path(sympspin.__file__).parent
    readers = sorted(p.name for p in src.glob("*.py")
                     if p.name != "symplectic.py"
                     and re.search(r"omega_(lower|upper)", p.read_text()))
    assert readers == []
