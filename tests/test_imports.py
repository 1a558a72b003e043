"""Every name a module of the package imports is used in that module, and
numpy is loaded only by the routes that use it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "descentpoly"
MODULES = sorted(PACKAGE.glob("*.py"))

# `verify` vectorizes its sweeps and is imported only by the commands that
# run them; every other module imports numpy inside the function using it.
NUMPY_AT_MODULE_LEVEL = {"verify.py"}


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


def _module_level_imports(source: str) -> set[str]:
    """Top-level packages imported outside every function body, absolute
    imports only (``from . import x`` names no package)."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(a.name.split(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.add(child.module.split(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_a_dead_import():
    source = "import os\nimport numpy as np\nfrom x import y, z\nprint(y, np.e)\n"
    assert _unused_imports(source) == ["os", "z"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(module):
    assert _unused_imports(module.read_text()) == []


def test_the_check_sees_a_module_level_import():
    source = (
        "import os.path\nfrom numpy import array\nfrom . import stats\n"
        "if True:\n    import json\n"
        "class A:\n    import re\n"
        "def f():\n    import random\n"
    )
    assert _module_level_imports(source) == {"os", "numpy", "json", "re"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_numpy_is_imported_at_module_level_only_by_verify(module):
    imports = _module_level_imports(module.read_text())
    assert ("numpy" in imports) == (module.name in NUMPY_AT_MODULE_LEVEL)


# Every command but verify and brute force, run in one fresh interpreter:
# none may load numpy, and a brute force over its cap, on S_n or on a word
# class, exits 3 before it would.  Each brute-force route, run after them,
# then must.
NUMPY_FREE = [
    ("poly --n 6 --x {2,3,4,6} --y {1,4} --method recursion", 0),
    ("poly --n 6 --x {2,3,4,6} --y {1,4} --method formula1", 0),
    ("poly --n 6 --x {2,3,4,6} --y {1,4} --method rook", 0),
    ("xyz --n 8 --x all --y all --z {1} --method rook", 0),
    ("word-poly --rho 2,3,1,2 --x {2,4} --y {1,2}", 0),
    ("--max-brute 3 word-poly --rho 3,3 --x {2} --y all --method brute", 3),
    ("--max-brute 3 poly --n 5 --x all --y all --method brute", 3),
    ("q-poly --n 5 --x {2,3}", 0),
    ("board --n 8 --x {2,3,5,7,8} --y {1,2,4,5,6}", 0),
    ("foata --perm 61437258", 0),
    ("configs --n 3 --s 2 --r 1 --x {2,3} --y {1,2} --list", 0),
    ("hypergeom --suite pfaff --max 3", 0),
    ("hypergeom --suite balanced", 0),
    ("hypergeom --suite cor35 --max 2", 0),
]
NUMPY_ROUTES = [
    "poly --n 6 --x all --y all --method brute",
    "word-poly --rho 2,2,1 --x {2} --y all --method brute",
]
NUMPY_FREE_RUN = """
import contextlib, io, sys
import descentpoly
from descentpoly import cli
def run(command):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(command.split())
for command, code in {free!r}:
    assert run(command) == code, command
    assert "numpy" not in sys.modules, command
assert run({route!r}) == 0
assert "numpy" in sys.modules
"""


def test_commands_without_a_numpy_route_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for route in NUMPY_ROUTES:
        script = NUMPY_FREE_RUN.format(free=NUMPY_FREE, route=route)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert done.returncode == 0, (route, done.stderr)
