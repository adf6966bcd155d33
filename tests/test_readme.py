"""The README's Quick start and Command line blocks run and print what
their comments say.

The Quick start block is read from README.md and run one statement at a
time, and each `tautring ...` line of the Command line block is run
through `cli.main`; every statement or command with a trailing comment is
checked against what that comment names, so a changed result or a changed
comment fails here.
"""

import ast
import json
from pathlib import Path

from tautring import cli
from tautring.cone_complex import simplex_cone_complex
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


def _command_line():
    """The `sh` block of the Command line section and the plain block after
    it, which shows the text report of `theta-genus2`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    commands, rest = section.split("```sh\n", 1)[1].split("```", 1)
    return commands, rest.split("```\n", 1)[1].split("```", 1)[0]


# trailing comment -> check of (stdout of the command, the theta report)
CLI_EXPECTED = {
    "7 stable graphs, listed canonically": lambda out, theta: json.loads(out)["count"] == 7,
    "DR cycle; coefficients 9/2, 9/2, -1/24": lambda out, theta: (
        sorted(term["coeff"] for term in json.loads(out)["class"]["terms"])
        == ["-1/24", "9/2", "9/2"]
    ),
    '{"member": false, "rank": 9, "ambient": 10, ...}': lambda out, theta: (
        json.loads(out).items() >= {"member": False, "rank": 9, "ambient": 10}.items()
    ),
    "solution line + infeasibility verdict": lambda out, theta: out == theta,
    "6 maximal cones": lambda out, theta: json.loads(out)["maximal_cones"] == 6,
    "piecewise-linear functions: dimension 1": lambda out, theta: (
        json.loads(out)["dimension"] == 1
    ),
}


def test_command_line_outputs_match_their_comments(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mycomplex.json").write_text(simplex_cone_complex(3).to_json())
    commands, theta = _command_line()
    checked = set()
    for line in commands.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "tautring"
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if comment:
            assert CLI_EXPECTED[comment.strip()](out, theta), line
            checked.add(comment.strip())
    assert checked == set(CLI_EXPECTED)
