"""Record the stdout digest of every CLI command the workloads can generate.

    python3 perfbench/capture_golden.py

Run at the seed commit only: the digests are the reference every later
commit must reproduce byte for byte.
"""

import hashlib
import json
import subprocess

from run import BENCH, PYTHON, ROOT, all_commands, clean_env


def main():
    digests = {}
    for size in ("full", "tiny"):
        for command in all_commands(size):
            key = " ".join(command)
            if key not in digests:
                out = subprocess.run(
                    [PYTHON, "-m", "tautring.cli", *command],
                    env=clean_env(), cwd=ROOT, capture_output=True, check=True,
                ).stdout
                digests[key] = hashlib.sha256(out).hexdigest()
                print(key, digests[key], flush=True)
    (BENCH / "golden.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
