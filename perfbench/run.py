"""The tautring benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload pairing --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; it measures the code in `src/`.
Load is a closed loop from one client: the commands of a workload run one
after another, each CLI command in a fresh process with the CLI's default
`--threads`, the `session` workload in one library process.  A pass runs
every command of the workload once; passes repeat while another one is
expected to end within `--seconds` (at least two).  Every output is
checked, against independent facts where they exist and against stdout
digests captured at the seed commit (`golden.json`); a non-zero exit, a
timeout or a failed check counts as a failed operation.

With `--trace 0` the last stdout line reports the end-to-end metrics, the
times in units of a reference computation run between the commands; with
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.
Earlier stdout lines give the environment, every metric with its unit,
and the error rate.
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable
RUN_LIMIT_S = 170  # a run must end within 180 s

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import reference  # noqa: E402


def _triples(m):
    """`--weights=a,b,c`: nonzero, sum 0, largest |a_i| equal to m.

    Fixing the largest weight fixes the sampled moduli r, and with them
    the weighting counts, for every seed."""
    return [
        "--weights=%d,%d,%d" % (a, b, -a - b)
        for a in range(-m, m + 1)
        for b in range(-m, m + 1)
        if a and b and a + b and max(abs(a), abs(b), abs(a + b)) == m
    ]


# A command is a list of arguments; a list among them is a pool the seed
# draws one value from.
WORKLOADS = {
    "strata": {
        "full": [
            ["graphs", "2", "3"],
            ["graphs", "3", "1"],
            ["dr", "2", _triples(3)],
        ],
        "tiny": [
            ["graphs", "2", "0"],
            ["graphs", "1", "2"],
            ["dr", "1", ["--weights=1,-1,1,-1", "--weights=-1,1,-1,1"], "--degree", "1"],
        ],
    },
    "pairing": {
        "full": [
            ["div-membership", "2", "2", "2"],
            ["div-membership", "1", "4", "1"],
            ["div-membership", "3", "0", "3"],
            ["lambda", "3", "0", "--pair"],
            ["theta-genus2", "--json"],
        ],
        "tiny": [
            ["div-membership", "3", "0", "3"],
            ["lambda", "3", "0", "--pair"],
            ["theta-genus2", "--json"],
        ],
    },
    "dr": {
        "full": [
            ["dr", "2", ["--weights=7,-7", "--weights=-7,7"], "--degree", "5"],
            ["dr", "2", ["--weights=7,-7", "--weights=-7,7"], "--degree", "4"],
            ["dr", "1", _triples(7), "--degree", "3"],
            ["lambda", "3", "0"],
        ],
        "tiny": [
            ["dr", "2", ["--weights=2,-2", "--weights=-2,2"], "--degree", "1"],
            ["lambda", "3", "0"],
        ],
    },
    "session": {"full": [["session"]], "tiny": [["session"]]},
}
SHUFFLED = {"pairing"}  # fixed inputs: the seed orders the commands


def commands(workload, size, rng):
    out = [
        [rng.choice(arg) if isinstance(arg, list) else arg for arg in command]
        for command in WORKLOADS[workload][size]
    ]
    if workload in SHUFFLED:
        rng.shuffle(out)
    return out


def all_commands(size):
    """Every CLI command any seed can generate, for the golden digests."""
    for workload, sizes in WORKLOADS.items():
        for command in sizes[size]:
            if command != ["session"]:
                pools = [arg if isinstance(arg, list) else [arg] for arg in command]
                yield from (list(c) for c in itertools.product(*pools))


# ---------------------------------------------------------------------------
# output checks


def _fields(**want):
    def check(payload):
        return [
            "%s is %r, expected %r" % (k, payload.get(k), v)
            for k, v in want.items()
            if payload.get(k) != v
        ]

    return check


def _graph_count(count):
    def check(payload):
        if payload["count"] == count == len(payload["graphs"]):
            return []
        return ["%d graphs, expected %d" % (len(payload["graphs"]), count)]

    return check


def _pairing_matches(payload):
    return [] if payload["pairing_check"]["matches_reference"] else ["pairing check failed"]


# Facts known independently of this code: counts of stable graphs, the
# divisor-span ranks of lambda_g, the genus-2 theta system, and the frozen
# reference expansions of lambda_g.
FACTS = {
    "graphs 2 3": _graph_count(555),
    "graphs 3 1": _graph_count(181),
    "graphs 2 0": _graph_count(7),
    "div-membership 2 2 2": _fields(rank=14, ambient=14, verdict="member"),
    "div-membership 1 4 1": _fields(rank=12, ambient=12, verdict="member"),
    "div-membership 3 0 3": _fields(rank=9, ambient=10, verdict="not a member"),
    "theta-genus2 --json": _fields(
        solution_dimension=1, x_nonneg_z_nonpos_feasible=False
    ),
    "lambda 3 0 --pair": _pairing_matches,
}


@functools.cache
def golden():
    return json.loads((BENCH / "golden.json").read_text())


def check_cli(command, stdout):
    key = " ".join(command)
    problems = []
    if hashlib.sha256(stdout).hexdigest() != golden().get(key):
        problems.append("stdout differs from the seed commit's")
    if key in FACTS:
        try:
            problems += FACTS[key](json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append("unreadable output: %s" % exc)
    return problems


# ---------------------------------------------------------------------------
# processes


def clean_env():
    """No user site-packages, no correlator cache, only the checkout's code."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONNOUSERSITE": "1",
        "PYTHONHASHSEED": "0",
    }


def launch(cmd, out_path, deadline):
    """Run cmd to completion: (exit code, or None on timeout; start; wall s; rusage)."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=clean_env(), cwd=ROOT)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(deadline - start, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), start, wall, usage


_op_ids = itertools.count()


def run_op(command, seed, size, work, deadline, trace):
    """Run and check one command; its wall s, CPU s, max RSS MB, problems,
    spans, and its timeline: ["work", wall s, CPU s] pieces, in `session`
    with ["ref", wall s, CPU s] runs of the reference computation between."""
    n = next(_op_ids)
    out = work / ("%d.out" % n)
    trace_path = work / ("%d.spans" % n)
    if command == ["session"]:
        cmd = [PYTHON, str(BENCH / "session.py"), "--seed", str(seed), "--size", size]
        cmd += ["--trace", str(trace_path)] if trace else []
    elif trace:
        cmd = [PYTHON, str(BENCH / "spans.py"), str(trace_path), "--", *command]
    else:
        cmd = [PYTHON, "-m", "tautring.cli", *command]
    code, start, wall, usage = launch(cmd, out, deadline)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024
    timeline = [["work", wall, cpu]]
    stdout = out.read_bytes()
    if code is None:
        problems = ["timed out"]
    elif code != 0:
        err = Path(str(out) + ".err").read_text(errors="replace").strip()
        problems = ["exit %d: %s" % (code, err[-300:])]
    elif command == ["session"]:
        try:
            report = json.loads(stdout)
        except ValueError:
            report = {"steps": [{"step": "output", "ok": False, "detail": "unreadable"}]}
        else:
            # interpreter start and imports, then the session's own timeline
            began_wall, began_cpu = report["began"]
            timeline = [["work", began_wall - start, began_cpu]] + report["timeline"]
            wall, cpu = (sum(item[i] for item in timeline if item[0] == "work") for i in (1, 2))
            rss = report["maxrss_kb"] / 1024
        problems = ["%s: %s" % (s["step"], s["detail"]) for s in report["steps"] if not s["ok"]]
    else:
        problems = check_cli(command, stdout)
    dump = json.loads(trace_path.read_text()) if trace and trace_path.exists() else None
    return {"command": command, "wall": wall, "cpu": cpu, "rss": rss,
            "problems": problems, "spans": dump, "timeline": timeline}


def in_reference_units(timeline, i):
    """Sum over the work pieces of timeline of item[i] over the mean of the
    nearest reference run before and after the piece."""
    refs = [n for n, item in enumerate(timeline) if item[0] == "ref"]
    total = 0.0
    for n, item in enumerate(timeline):
        if item[0] == "work":
            before = max(r for r in refs if r < n)
            after = min(r for r in refs if r > n)
            total += item[i] / ((timeline[before][i] + timeline[after][i]) / 2)
    return total


def run_pass(cmds, seed, size, work, deadline, trace=False):
    """Every command once, with the reference computation before each one
    and after the last, so that the references sample the host's speed
    all through the pass."""
    ops, timeline = [], [["ref", *reference.measure()]]
    for command in cmds:
        ops.append(run_op(command, seed, size, work, deadline, trace))
        timeline += ops[-1]["timeline"] + [["ref", *reference.measure()]]
    return {
        "ops": ops,
        "wall": sum(op["wall"] for op in ops),
        "cpu": sum(op["cpu"] for op in ops),
        "rss": max(op["rss"] for op in ops),
        "wall_ref": in_reference_units(timeline, 1),
        "cpu_ref": in_reference_units(timeline, 2),
        "ref_wall": statistics.median(item[1] for item in timeline if item[0] == "ref"),
    }


def probe(work, deadline):
    """Environment of the measured code, from a clean-environment child."""
    script = (
        "import json, os, sys, tautring, tautring.cli, tautring.rationals as r\n"
        "print(json.dumps({'python': sys.version.split()[0],"
        " 'rationals': r.QQ.__module__ + '.' + r.QQ.__qualname__,"
        " 'cpus': os.cpu_count(),"
        " 'default_threads': tautring.cli.build_parser().get_default('threads'),"
        " 'tautring': tautring.__file__}))\n"
    )
    code, _, _, _ = launch([PYTHON, "-c", script], work / "probe", deadline)
    if code != 0:
        raise SystemExit("cannot import tautring from %s" % SRC)
    info = json.loads((work / "probe").read_text())
    if not Path(info.pop("tautring")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("tautring is not loaded from %s" % SRC)
    info["commit"] = _commit()
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    info["source_sha256"] = source.hexdigest()[:16]
    return info


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.exists():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def setup_times(work, deadline, repeats, warmup=0):
    """Wall times of fresh interpreter start + import tautring + building the parser."""
    cmd = [PYTHON, "-c", "import tautring.cli; tautring.cli.build_parser()"]
    times = []
    for _ in range(warmup + repeats):
        code, _, wall, _ = launch(cmd, work / "setup", deadline)
        if code != 0:
            raise SystemExit("setup probe failed")
        times.append(wall)
    return times[warmup:]


# ---------------------------------------------------------------------------


def end_to_end(passes, setup):
    """Pass wall and CPU time in units of the reference computation run
    around each piece of the pass (see `reference.py`), median over passes.

    The host's slow phases stretch a piece and the references around it
    alike, so the ratio keeps what the program costs and drops the phase
    the run fell in; a median of seconds moves with the phase."""
    return {
        "wall_ref": (statistics.median(p["wall_ref"] for p in passes), "ref"),
        "cpu_ref": (statistics.median(p["cpu_ref"] for p in passes), "ref"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
        "setup_s": (setup, "s"),
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "sample_overlap", "_per_term_pair")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "tautring" / "cli.py").exists():
        print("no tautring sources under %s" % SRC, file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        info = probe(work, deadline)
        cmds = commands(args.workload, args.size, random.Random(args.seed))
        # half the set-up probes before the passes and half after, so that
        # their median spans the run; the first few after a pause run slower
        setup = setup_times(work, deadline, 8, warmup=3)
        if args.trace:
            passes = [run_pass(cmds, args.seed, args.size, work, deadline)]
            passes.append(run_pass(cmds, args.seed, args.size, work, deadline, trace=True))
            traced, untraced = passes[1], passes[0]
            metrics = spans.summarize([op["spans"] for op in traced["ops"] if op["spans"]])
            metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
            metrics["trace.overhead_s"] = (traced["wall"] - untraced["wall"], "s")
        else:
            passes, longest = [], 0.0
            while True:
                begun = time.monotonic()
                passes.append(run_pass(cmds, args.seed, args.size, work, deadline))
                longest = max(longest, time.monotonic() - begun)
                # at least two passes, so that each command has a fastest one;
                # more only if the next should end within --seconds
                end = time.monotonic() + longest - started
                if end > RUN_LIMIT_S - 20 or (len(passes) >= 2 and end > args.seconds):
                    break
        setup = statistics.median(setup + setup_times(work, deadline, 8))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    timed = passes[:1] if args.trace else passes
    report = end_to_end(timed, setup)
    if not args.trace:
        metrics = report

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    print("environment: %s" % json.dumps(info, sort_keys=True))
    print("workload %s, seed %d, %d pass(es), commands: %s" % (
        args.workload, args.seed, len(passes), "; ".join(" ".join(c) for c in cmds)))
    for i, command in enumerate(cmds):
        times = [p["ops"][i]["wall"] for p in timed]
        print("  %.3f s median of %d: %s" % (statistics.median(times), len(times), " ".join(command)))
    for key, name in (("wall", "wall_s"), ("cpu", "cpu_s"), ("ref_wall", "reference_s")):
        print("%-12s %.4f s (median over passes)" % (name, statistics.median(p[key] for p in timed)))
    print("wall_ref per pass: %s" % " ".join("%.3f" % p["wall_ref"] for p in timed))
    for op in failed:
        print("FAILED %s: %s" % (" ".join(op["command"]), "; ".join(op["problems"])))
    for name, (value, unit) in report.items():
        print("%-12s %.4f %s" % (name, value, unit))
    print("%-12s %.4f (%d of %d operations failed)" % (
        "error_rate", len(failed) / len(ops), len(failed), len(ops)))
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print("%-40s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
