"""Which functions of descentpoly no command, suite or workload enters.

    python tests/reach.py

Runs, under a ``sys.settrace`` hook that records the code object of every
call, and names those of ``src/descentpoly`` afterwards:

- each command of the README's "Command line" block, in JSON and in text;
- ``verify --suite all --max-n 4`` and the three ``hypergeom`` suites;
- one round at seed 1 of each workload of ``bench/workloads.py``, each
  operation's check included.

The package's cached functions are emptied first, so a second run in one
process enters what the first did.  It then prints the top-level functions
and methods never entered, with their lines, and their count and total
lines.  A function is entered when a code object starts at its ``def``
line or, for a decorated one, at its first decorator's line.  It exits 1
when an unreached name is missing from ``REACH_EXEMPT``, or when a name
listed there is reached or no longer exists.  Standard library only; it
takes about 32 s on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "descentpoly"
sys.path.insert(0, str(ROOT / "bench"))

# Functions and methods that no command, suite or workload enters, by kind,
# each with the reason it stays.
REACH_EXEMPT_BY_KIND = {
    "imported by the acceptance gate": {
        "closed_forms.formula_alpha_beta": "criterion 1's first formula",
        "closed_forms.formula_alpha_beta_terms": "criterion 1's term lists",
        "closed_forms.formula_beta_beta_terms": "criterion 1's term lists",
        "closed_forms.formula_X_only_1": "criterion 3's product form for X only",
        "closed_forms.kn_top_formulas": "criterion 3's Kitaev-Remmel sums for tops",
        "closed_forms.kn_bottom_formulas": "criterion 3's Kitaev-Remmel sums for bottoms",
        "closed_forms._multiples_of": "the set of multiples that the kN sums share",
        "words.word_formula_1": "criterion 6's first word formula",
        "words.standardize": "criterion 6's standardization of a word",
        "words._rho_of": "the letter counts that chi and standardize read",
        "stats.descent_value_pairs": "criterion 6's descents by value",
        "hypergeom.verify_balanced_identity": "criterion 7's balanced identity",
        "rook.hit_numbers": "criterion 8's hit numbers",
        "rook.hit_polynomial": "criteria 1 and 8's rook route",
        "rook.hit_polynomial_permanent": "criterion 8's permanent expansion",
        "stats.q_recursion": "criterion 9's q-refined recursion",
        "polynomials.BivarPolynomial.specialize_first": "criterion 9 sets q = 1",
    },
    "a TEST_ONLY oracle": {
        "stats.des_set": "the plain walk that checks the brute force",
        "stats.brute_bivar": "the two-variable brute force",
        "stats.coefficient_recursion_bivar": "the gather form of recursion_bivar",
        "stats.complement_reverse": "X*, which turns a bottoms count into a tops count",
        "perms.cycles": "the reference for foata_inverse",
        "perms.from_cycles": "the reference for foata_inverse",
        "rook.hit_numbers_enumerate": "the walk over S_n that checks the frontier DP",
        "rook.u_excedences": "the statistic hit_numbers_enumerate counts",
        "perms.all_permutations": "the walk hit_numbers_enumerate takes",
        "rook.rook_equivalent": "the structure-multiset test of rook equivalence",
        "hypergeom.eval_terminating": "the Fraction face of the series sums",
    },
    "a statement of the paper": {
        "closed_forms.rectangle_product": "the product formula for the closed forms",
        "configurations.fixed_point_from_seq": "the canonical fixed point",
        "hypergeom.pfaff_saalschutz_lhs": "the Pfaff-Saalschutz left side",
        "hypergeom.pfaff_saalschutz_rhs": "the Pfaff-Saalschutz right side",
        "words.chi": "the map chi from words to permutations",
        "words.all_chi_factors": "the factor tuples of chi",
    },
    "value-type surface": {
        **dict.fromkeys(
            [f"configurations.Configuration.{name}" for name in [
                "flavor", "tops", "bottoms", "minus_mask", "plus_by_gap",
                "required_mask", "plus_count", "minus_count", "sign"]],
            "a read of the configuration's frame or layout",
        ),
        **dict.fromkeys(
            [f"configurations.Configuration.{name}" for name in ["__hash__", "__repr__"]],
            "configurations hash and show by value",
        ),
        **dict.fromkeys(
            [f"polynomials.{name}" for name in [
                "_Sparse.__bool__", "_Sparse.__hash__", "_Sparse.__repr__",
                "IntPolynomial._term", "BivarPolynomial._term"]],
            "polynomials test, hash and show by value",
        ),
        "polynomials.IntPolynomial.degree": "the length that coeff_list reads",
        "polynomials.IntPolynomial.coeff_list": "the README's library section shows it",
        "polynomials.BivarPolynomial.coeff": "one coefficient of a two-variable answer",
        "sets.IntegerSet.contains": "the abstract stub each kind of set overrides",
        "sets.IntegerSet.__str__": "the abstract stub each kind of set overrides",
        "sets.IntegerSet.restrict": "the letters of a set that complement_reverse reads",
        "sets.IntegerSet.complement_in": "the non-bottoms that brute_bivar counts",
    },
    "a failure-only path": {
        "perms.VerificationError.__init__": "raised when two routes disagree",
        "configurations._layout_config": "builds the configuration a failure names",
    },
}
REACH_EXEMPT = {
    name: f"{kind}: {why}"
    for kind, names in REACH_EXEMPT_BY_KIND.items()
    for name, why in names.items()
}

SUITES = [
    ["verify", "--suite", "all", "--max-n", "4"],
    ["hypergeom", "--suite", "pfaff", "--max", "5"],
    ["hypergeom", "--suite", "balanced", "--max", "5"],
    ["hypergeom", "--suite", "cor35", "--max", "5"],
]


def readme_commands() -> list[list[str]]:
    """The argv of each command in the README's first "Command line" block."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.strip()]
    return [shlex.split(line)[1:] for line in lines if not line.lstrip().startswith("#")]


def run_everything():
    import run as bench
    from workloads import WORKLOADS

    pkg = bench.load_package()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "descentpoly":  # so a cached call is entered again
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    with contextlib.redirect_stdout(io.StringIO()):
        argvs = dict.fromkeys(map(tuple, readme_commands() + SUITES))
        for argv in argvs:
            for fmt in ("json", "text"):
                pkg.cli.main(["--format", fmt, *argv])
        for make in WORKLOADS.values():
            for op in make(pkg, 1):
                op.check(op.run())


def top_level_functions(tree):
    """(qualified name, first line, last line, def line) of each function at
    module level or in a module-level class; the first line is the first
    decorator's when there is one."""
    for node in tree.body:
        owner, members = "", [node]
        if isinstance(node, ast.ClassDef):
            owner, members = node.name + ".", node.body
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                yield owner + fn.name, first, fn.end_lineno, fn.lineno


def main() -> int:
    codes = set()

    def hook(frame, event, arg):  # on each new frame; traces none of its lines
        codes.add(frame.f_code)

    sys.settrace(hook)
    try:
        run_everything()
    finally:
        sys.settrace(None)
    package = str(PACKAGE)
    entered = {(Path(code.co_filename).name, code.co_firstlineno)
               for code in codes if code.co_filename.startswith(package)}

    defined, unreached, lines = set(), [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, first, last, def_line in top_level_functions(tree):
            defined.add(f"{path.stem}.{name}")
            if {(path.name, first), (path.name, def_line)} & entered:
                continue
            unreached.append(f"{path.stem}.{name}")
            lines += last - first + 1
            print(f"{path.stem}.{name}  {last - first + 1} lines")
    print(f"unreached: {len(unreached)} functions and methods, {lines} lines")
    faults = (
        [f"unreached and not in REACH_EXEMPT: {name}"
         for name in unreached if name not in REACH_EXEMPT]
        + [f"in REACH_EXEMPT but {'reached' if name in defined else 'not defined'}: {name}"
           for name in REACH_EXEMPT if name not in unreached]
    )
    for fault in faults:
        print(fault)
    return 1 if faults else 0

if __name__ == "__main__":
    sys.exit(main())
