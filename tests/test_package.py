"""The package's public names."""

import importlib
import pkgutil

import pytest

import turancover

MODULES = ["turancover", *(f"turancover.{m.name}"
                           for m in pkgutil.iter_modules(turancover.__path__)
                           if m.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark's tracer looks up every __all__ entry of each module
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
