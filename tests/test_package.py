"""The package's public names and imports."""

import ast
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name listed in ``__all__`` counts as read (a re-export); ``from
    __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as handle:
        assert _unused_imports(handle.read()) == []


def test_unused_import_gate_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .a import b, c\n"
              "__all__ = ['c']\n"
              "def f():\n    import json\n    return np.zeros(1)\n")
    assert _unused_imports(source) == ["line 2: os", "line 4: b", "line 7: json"]
