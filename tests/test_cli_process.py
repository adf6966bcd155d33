"""The CLI as a process: `python -m tautring.cli` and the console script.

`cli.run` is the process entry point.  It turns the cyclic collector off
and ends the process with `os._exit`, so it runs here only in child
processes, each in an environment that holds only the source path.  The
golden digests are those of `tests/test_golden_cli.py`, which runs
`cli.main` in process.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tautring import cli
from test_golden_cli import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
ENV.update(PYTHONPATH=str(ROOT / "src"), PYTHONNOUSERSITE="1", COLUMNS="80")


def _cli(command, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tautring.cli", *command.split()],
        env=ENV, text=True, timeout=60, **kwargs,
    )


@pytest.mark.parametrize(
    "command",
    ["graphs 2 0", "theta-genus2 --json", "div-membership 1 1 1", "cone simplex3 barycentric"],
)
def test_process_stdout_matches_the_golden_digest(command):
    proc = _cli(command, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN[command]


def test_process_exit_codes(monkeypatch):
    domain = _cli("graphs -1 0", capture_output=True)
    assert (domain.returncode, domain.stdout) == (2, "")
    assert domain.stderr == "error: (-1,0) is not a stable type\n"

    usage = _cli("graphs 2 0 --threads 2", capture_output=True)
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.startswith("usage: tautring")
    assert usage.stderr.endswith("error: unrecognized arguments: --threads 2\n")

    # smooth_graph asks for a tuple of 10**12 legs, refused at once
    too_big = _cli("graphs 1 1000000000000", capture_output=True)
    assert (too_big.returncode, too_big.stdout) == (2, "")
    assert too_big.stderr == "error: out of memory\n"

    helped = _cli("--help", capture_output=True)
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout == cli.build_parser().format_help()


@pytest.mark.parametrize(
    "command",
    # 907 bytes wait in the stdout buffer until the flush; 39 kB are
    # written, and fail, inside the command's own print
    ["graphs 2 0", "graphs 3 1", "--help"],
)
def test_a_closed_stdout_exits_2_without_a_traceback(command):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli(command, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: stdout closed\n")


GC_PROBE = """
import atexit, contextlib, gc, hashlib, io, json, sys, threading
handlers = atexit._ncallbacks()  # the interpreter's own, if site added any
from tautring import cli

gc.disable()
gc.collect()
found = {}
for command in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    found[command] = {
        "code": code,
        "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "unreachable": gc.collect(),
        "threads": [t is threading.main_thread() for t in threading.enumerate()],
        "atexit": atexit._ncallbacks() - handlers,
    }
print(json.dumps(found))
"""


def test_commands_leave_no_cyclic_garbage_threads_or_exit_handlers():
    """What `cli.run` relies on when it turns the collector off and skips
    teardown: with the collector off, each command leaves exactly as much
    cyclic garbage as the smallest one (its argument parser), starts no
    thread and registers no `atexit` handler."""
    commands = [
        "theta-genus2 --json",
        "div-membership 2 2 2",
        "lambda 3 0 --pair",
        "dr 2 --weights=2,-1,-1",
        "graphs 3 1",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", GC_PROBE, *commands],
        env=ENV, capture_output=True, text=True, timeout=60, check=True,
    )
    found = json.loads(proc.stdout)
    baseline = found["theta-genus2 --json"]["unreachable"]
    for command in commands:
        assert found[command] == {
            "code": 0,
            "digest": GOLDEN[command],
            "unreachable": baseline,
            "threads": [True],
            "atexit": 0,
        }, command


RUN_PROBE = """
import gc, os, sys
from tautring import cli

def passes():
    return [stats["collections"] for stats in gc.get_stats()]

before, exit = passes(), os._exit
def report(code):
    print(code, [a - b for a, b in zip(passes(), before)], file=sys.stderr)
    exit(code)
os._exit = report
sys.argv[1:] = ["div-membership", "2", "2", "2"]
cli.run()
"""


def test_run_makes_no_collector_pass():
    """With the collector on, `cli.main` takes about 30 passes here."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PROBE], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "0 [0, 0, 0]\n")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN["div-membership 2 2 2"]


def test_the_console_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["tautring"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
