"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "descentpoly"


def _unused_imports(source: str) -> list[str]:
    """Imported names that no expression reads and `__all__` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_the_check_sees_a_dead_import():
    source = "import os\nimport numpy as np\nfrom x import y, z\nprint(y, np.e)\n"
    assert _unused_imports(source) == ["os", "z"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_imports(module):
    assert _unused_imports(module.read_text()) == []
