"""Every name in a module's __all__ exists, so a deletion cannot leave a
dangling export behind, and every exported name is read somewhere that is
not a unit test, so an export that only tests call is named here with its
reason.  A module that reads another module's private name is named here
with its reason too."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import descentpoly

MODULES = ["descentpoly"] + [
    f"descentpoly.{info.name}" for info in pkgutil.iter_modules(descentpoly.__path__)
]

ROOT = Path(__file__).parents[1]

# Exports that only unit tests read, each with the reason it stays.
TEST_ONLY = {
    "rectangle_product": "an independent product formula for the closed forms",
    "fixed_point_from_seq": "the paper's canonical fixed point of the involution",
    "eval_terminating": "the public Fraction face of the series sums the sweeps use",
    "pfaff_saalschutz_lhs": "the public Fraction face of the Pfaff sweep's left side",
    "pfaff_saalschutz_rhs": "the public Fraction face of the Pfaff sweep's right side",
    "cycles": "perms.cycles, the reference for foata_inverse",
    "from_cycles": "the reference for foata_inverse",
    "hit_numbers_enumerate": "the walk over S_n that checks the frontier DP",
    "rook_equivalent": "the structure-multiset test of rook equivalence",
    "des_set": "the plain walk that checks the brute force",
    "brute_bivar": "the two-variable brute force that checks the recursions",
    "coefficient_recursion_bivar": "the gather form that checks recursion_bivar",
    "complement_reverse": "X*, which turns a bottoms count into a tops count",
    "all_chi_factors": "the factor tuples of the paper's map chi",
}

# Private names that one package module reads from another, as (reader,
# owner, name), each with the reason the owner does not export it.
CROSS_PRIVATE = {
    ("words", "stats", "_class_counts"):
        "the word-class face of the one blocked walk",
}


def _references(source: str):
    """Name ids, attribute names and from-import names in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _corpus() -> set:
    """Every name the package's own modules (a re-export in __init__ does not
    count), the acceptance gate, the benchmark and the README's code read."""
    package = ROOT / "src" / "descentpoly"
    sources = [p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    sources += [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return {name for source in sources for name in _references(source)}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_private_reads() -> set:
    """(reader, owner, name) for each ``from .owner import _name`` and each
    ``owner._name`` where ``owner`` is bound by ``from . import owner``, in
    the package's modules; dunder names do not count."""
    reads = set()
    for path in (ROOT / "src" / "descentpoly").glob("*.py"):
        tree = ast.parse(path.read_text())
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        reads.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in siblings):
                reads.add((path.stem, siblings[node.value.id], node.attr))
    return reads


def _exported() -> set:
    return {
        name
        for module in MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_export_is_read_or_allowlisted():
    corpus, exported = _corpus(), _exported()
    assert sorted(exported - corpus - TEST_ONLY.keys()) == []
    assert sorted(TEST_ONLY.keys() & corpus) == []
    assert sorted(TEST_ONLY.keys() - exported) == []


def test_every_cross_module_private_read_is_allowlisted():
    reads = _cross_private_reads()
    assert sorted(reads - CROSS_PRIVATE.keys()) == []
    assert sorted(CROSS_PRIVATE.keys() - reads) == []
