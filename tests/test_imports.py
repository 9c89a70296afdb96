import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "gwpva"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it neither reads
    nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read | exported]


def test_unused_import_check_sees_them():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "from x import a, b as c\n__all__ = ['a']\n\ndef f():\n    return np.pi\n")
    assert _unused_imports(src) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _imported_modules(source: str) -> set[str]:
    """Top-level package names of every import statement in ``source``, at
    any depth (function-local imports included)."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_check_sees_local_imports():
    src = "import numpy as np\n\ndef f():\n    from scipy import special\n    import scipy.stats\n"
    assert _imported_modules(src) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # SciPy is a test-only oracle: every quantile the package reports comes
    # from its own incomplete beta and gamma kernels
    assert "scipy" not in _imported_modules(path.read_text())


def test_every_exported_name_is_its_home_module_object():
    # gwpva exports lazily (PEP 562): each name of __all__ loads its home
    # module on first access and is that module's own object, listed in the
    # module's __all__; the home modules resolve as attributes too
    code = ("import gwpva, importlib, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "for name in gwpva.__all__:\n"
            "    home = importlib.import_module('gwpva.' + gwpva._HOME[name])\n"
            "    assert getattr(gwpva, name) is getattr(home, name), name\n"
            "    assert name in home.__all__ and name in dir(gwpva), name\n"
            "    assert getattr(gwpva, gwpva._HOME[name]) is home, name\n"
            "namespace = {}\n"
            "exec('from gwpva import *', namespace)\n"
            "assert sorted(set(namespace) - {'__builtins__'}) == sorted(gwpva.__all__)\n"
            "assert len(gwpva.__all__) == 70 and 'numpy' in sys.modules\n"
            "try:\n"
            "    gwpva.no_such_name\n"
            "except AttributeError as e:\n"
            "    assert 'no_such_name' in str(e)\n"
            "else:\n"
            "    raise AssertionError('gwpva.no_such_name resolved')\n")
    src = str(PACKAGE.parent)
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True, timeout=120)
