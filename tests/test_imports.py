"""Every name a symbolkit module imports is used in that module, and
every name in a module's ``__all__`` exists there.

An import marked ``# noqa: F401`` is exempt (cli.py keeps one for
perfbench's tracer).  ``__init__.py`` imports no submodule: it maps each
exported name to the submodule that defines it and imports that
submodule when the name is first used.  Its ``__all__`` is exactly that
map's names, each the submodule's own object, and a bare
``import symbolkit`` loads no submodule.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import symbolkit

MODULES = sorted(p for p in Path(symbolkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "from sys import argv  # noqa: F401\nx = np.pi + len(sep)\n")
    assert _unused_imports(source) == ["line 1: math", "line 3: path"]


def _unresolved_exports(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("module", ["symbolkit", *(f"symbolkit.{p.stem}" for p in MODULES
                                                   if p.stem != "__main__")])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert _unresolved_exports(mod) == []
    if module == "symbolkit":
        assert mod.__all__ == sorted(mod._SUBMODULE)
        for name in mod.__all__:
            home = importlib.import_module(f"symbolkit.{mod._SUBMODULE[name]}")
            assert getattr(mod, name) is getattr(home, name), name
        star = {}
        exec("from symbolkit import *", star)
        assert sorted(star.keys() - {"__builtins__"}) == mod.__all__
        with pytest.raises(AttributeError, match="'no_such_name'"):
            mod.no_such_name


def test_a_stale_export_is_found():
    module = types.ModuleType("stale")
    module.__all__ = ["present", "removed"]
    module.present = object()
    assert _unresolved_exports(module) == ["removed"]


def _loaded_by(statement: str) -> list[str]:
    """The symbolkit modules a fresh interpreter holds after ``statement``."""
    src = str(Path(symbolkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (f"import sys\n{statement}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'symbolkit'))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_import_loads_only_the_submodules_it_uses():
    # dir() lists every export without importing its submodule
    assert _loaded_by("import symbolkit\n"
                      "assert set(symbolkit.__all__) <= set(dir(symbolkit))") == ["symbolkit"]
    assert _loaded_by("import symbolkit.config") == [
        "symbolkit", "symbolkit.config", "symbolkit.expr", "symbolkit.quadrature",
        "symbolkit.triplet"]
