import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "gwpva").glob("*.py")
                 if p.name != "__init__.py")


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
