"""The package's public surface: each ``__all__`` names what it exports."""

import importlib
import pkgutil

import pytest

import qfluid

MODULES = sorted(m.name for m in pkgutil.iter_modules(qfluid.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["qfluid"] + [f"qfluid.{m}" for m in MODULES])
def test_every_name_in_all_resolves_once(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)
