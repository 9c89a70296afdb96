import ast
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
