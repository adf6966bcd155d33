"""Every import in a tautring module is used (pyflakes' F401, by `ast`)."""

import ast
from pathlib import Path

import pytest

import tautring

MODULES = sorted(
    path for path in Path(tautring.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom math import (\n    gcd,\n    lcm,\n)\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == [(1, "os"), (4, "lcm")]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
