"""Every name a module exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import polybinom

MODULES = ["polybinom"] + [
    f"polybinom.{info.name}" for info in pkgutil.iter_modules(polybinom.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
