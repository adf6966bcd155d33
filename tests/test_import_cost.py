"""What importing the CLI does, checked in a fresh interpreter whose
environment holds only the source path.

It loads neither `dataclasses` nor `inspect`: together they cost about half
the import time of `tautring.cli`, which every CLI process pays; the value
types are plain slotted classes and named tuples so that no module needs
them.  It leaves the cyclic collector on: only `cli.run`, the process entry
point, turns it off, so tests and library users importing the CLI keep it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _probe(source):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1")
    out = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_no_dataclasses_or_inspect():
    probe = (
        "import sys, tautring.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert _probe(probe) == "[]"


def test_cli_import_leaves_the_collector_on():
    assert _probe("import gc, tautring.cli\nprint(gc.isenabled())\n") == "True"
