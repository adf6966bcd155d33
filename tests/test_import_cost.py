"""Importing the CLI loads neither `dataclasses` nor `inspect`.

Together they cost about half the import time of `tautring.cli`, which
every CLI process pays; the value types are plain slotted classes and
named tuples so that no module needs them.  Checked in a fresh
interpreter whose environment holds only the source path.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import sys, tautring.cli\n"
    "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
)


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1")
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
