"""Which functions of descentpoly no command, suite or workload enters.

    python tests/reach.py

Runs, under a ``sys.setprofile`` hook that records every code object of
``src/descentpoly`` it sees called:

- each command of the README's "Command line" block, in JSON and in text;
- ``verify --suite all --max-n 4`` and the three ``hypergeom`` suites;
- one round at seed 1 of each workload of ``bench/workloads.py``.

It then prints the top-level functions and methods never entered, with
their lines, and their count and total lines.  A function is entered when
a code object starts at its ``def`` line or, for a decorated one, at its
first decorator's line.  Standard library only; it takes about a minute.
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
    with contextlib.redirect_stdout(io.StringIO()):
        argvs = dict.fromkeys(map(tuple, readme_commands() + SUITES))
        for argv in argvs:
            for fmt in ("json", "text"):
                pkg.cli.main(["--format", fmt, *argv])
        for make in WORKLOADS.values():
            for op in make(pkg, 1):
                op.run()


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
    entered = set()
    package = str(PACKAGE)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                entered.add((Path(code.co_filename).name, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run_everything()
    finally:
        sys.setprofile(None)

    count = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, first, last, def_line in top_level_functions(tree):
            if {(path.name, first), (path.name, def_line)} & entered:
                continue
            count += 1
            lines += last - first + 1
            print(f"{path.stem}.{name}  {last - first + 1} lines")
    print(f"unreached: {count} functions and methods, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
