"""The README's "Library" block runs as written: each line whose comment
starts with a literal evaluates to that literal."""

import ast
import re
from pathlib import Path

# a list, True/False or an integer at the start of a trailing comment
LITERAL = re.compile(r"\s*(\[[^\]]*\]|True|False|-?\d+)")


def _library_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_lines_give_their_commented_values():
    namespace = {}
    checked = 0
    for line in _library_block().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        literal = LITERAL.match(comment)
        if literal is None:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == ast.literal_eval(literal.group(1)), line
        checked += 1
    assert checked >= 8
