"""Self-tests of the benchmark, on the tiny inputs of every workload.

    python3 -m pytest -q perfbench
"""

import json
import subprocess

import pytest

from run import BENCH, PYTHON, ROOT, WORKLOADS, all_commands, clean_env, in_reference_units
from spans import RACED_COUNTS


def _run(cmd):
    return subprocess.run(cmd, env=clean_env(), cwd=ROOT, capture_output=True, timeout=170)


def _bench(workload, trace):
    proc = _run([PYTHON, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("command", list(all_commands("tiny")), ids=" ".join)
def test_traced_stdout_is_byte_identical(command, tmp_path):
    plain = _run([PYTHON, "-m", "tautring.cli", *command])
    traced = _run([PYTHON, str(BENCH / "spans.py"), str(tmp_path / "spans"), "--", *command])
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    assert json.loads((tmp_path / "spans").read_text())["spans"]


def test_traced_session_computes_the_same_values(tmp_path):
    session = [PYTHON, str(BENCH / "session.py"), "--seed", "3", "--size", "tiny"]
    plain = json.loads(_run(session).stdout)
    traced = json.loads(_run(session + ["--trace", str(tmp_path / "spans")]).stdout)
    assert plain["digest"] == traced["digest"]
    assert all(step["ok"] for step in plain["steps"] + traced["steps"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_ref", "cpu_ref", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first, second = _bench(workload, 1), _bench(workload, 1)
    raced = () if workload == "session" else RACED_COUNTS  # no thread pool there
    counts = [
        k for k, v in first["metrics"].items()
        if v["unit"] == "count" and k not in raced
    ]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_pieces_are_divided_by_the_references_around_them():
    timeline = [["ref", 1.0, 0.5], ["work", 4.0, 2.0], ["ref", 3.0, 1.5],
                ["work", 3.0, 1.0], ["work", 6.0, 2.0], ["ref", 3.0, 0.5]]
    assert in_reference_units(timeline, 1) == 4.0 / 2.0 + 3.0 / 3.0 + 6.0 / 3.0
    assert in_reference_units(timeline, 2) == 2.0 / 1.0 + 1.0 / 1.0 + 2.0 / 1.0
