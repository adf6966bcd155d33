"""No tautring module uses a leading-underscore name of another one (by `ast`).

A module's private names are its own: a helper that two modules need is
public in one of them, or lives in `tautring.combinatorics`.  The check
flags `from .x import _name` and `x._name` where `x` is a tautring module
bound by an import.  Attributes of objects, such as a class's own
`_insert`, are not module names and are not flagged.
"""

import ast
from pathlib import Path

import pytest

import tautring

MODULES = sorted(Path(tautring.__file__).parent.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_tautring(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "tautring"


def _private_uses(source):
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_tautring(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((alias.lineno, alias.name))
                elif node.module is None or node.module == "tautring":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tautring" and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_check_finds_private_imports_and_reads():
    source = (
        "from . import stable_graphs as sg\n"
        "from .taut_classes import (\n    TautClass,\n    _partitions,\n)\n"
        "import tautring.pixton as px\n"
        "sg._degeneration_index(3, 0, 1)\n"
        "px.__name__, px.lambda_top, self._insert, sg.contract_edges\n"
    )
    assert _private_uses(source) == [(4, "_partitions"), (7, "_degeneration_index")]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_private_names_across_modules(path):
    assert _private_uses(path.read_text()) == []
