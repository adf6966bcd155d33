"""A fixed reference computation: the yardstick for the host's speed.

    python3 perfbench/reference.py

The host this benchmark runs on is shared: it goes through fast and slow
phases, from seconds to minutes long, that slow every process alike, by
up to two thirds.  The benchmark runs this computation in a fresh process
between pieces of a workload, each a few seconds long, and reports the
workload's times as multiples of the reference's time around them.  It
uses the standard library only, so no change to tautring moves it, and
does what tautring spends its time on: exact `Fraction` arithmetic, and
sorting and hashing tuples into a dict.
"""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction

EXPECTED = b"625 40320\n"


def compute():
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction((-1) ** k, k * k + 1)
    classes = {}
    for perm in itertools.permutations(range(8)):
        key = tuple(sorted(zip(perm, range(8))))
        classes[key] = classes.get(key, 0) + 1
    return "%d %d" % (total.denominator % 1000, len(classes))


def measure():
    """Wall and CPU s of this file run in a fresh, isolated interpreter."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-I", __file__], stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or out != EXPECTED:
        raise SystemExit("the reference computation failed: %r" % out)
    return wall, usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    print(compute())
