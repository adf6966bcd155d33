"""The README's Quick start block runs and prints what its comments say.

The block is read from README.md and run one statement at a time; every
statement with a trailing comment is checked against the value that
comment names, so a changed result or a changed comment fails here.
"""

import ast
from pathlib import Path

from tautring.rationals import QQ

README = Path(__file__).resolve().parent.parent / "README.md"

# trailing comment -> check of (value of the statement, namespace after it)
EXPECTED = {
    "7/240": lambda value, ns: value == QQ(7, 240),
    "['1/1152', '1/240']": lambda value, ns: value == ["1/1152", "1/240"],
    "7/5760": lambda value, ns: value == QQ(7, 5760),
    "-11/12": lambda value, ns: value == QQ(-11, 12),
    "coefficients {2, -1/24}": lambda value, ns: (
        set(ns["dr"].terms.values()) == {QQ(2), QQ(-1, 24)}
    ),
    "'not a member' (rank 9 of 10)": lambda value, ns: (
        value == "not a member" and (ns["report"].rank, ns["report"].ambient_rank) == (9, 10)
    ),
    "6": lambda value, ns: value == 6,
}


def _quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values_match_their_comments():
    block = _quick_start()
    lines = block.splitlines()
    namespace = {}
    checked = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            value = None
        line = lines[node.end_lineno - 1]
        if "  # " in line:
            comment = line.split("  # ", 1)[1].strip()
            assert EXPECTED[comment](value, namespace), (comment, value)
            checked[comment] = value
    assert set(checked) == set(EXPECTED)
