#!/usr/bin/env python3
"""Build dpcbench from source and run it on one workload.

    python3 dpcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            [--perturb store|send|query:<ns>]...

Run from the root of a checkout of the repository. Builds
dpcbench/dpcbench.exe with dune (into _build/ of the checkout), then runs it
with the given arguments; Chrome traces of a --trace 1 run go to
_build/dpcbench/.
The executable prints every metric, its checks, and as its last line one JSON
object with "correct", "attempted", "failed" and "metrics". Exits with the
executable's code, or 1 if the build fails or the run takes too long.
"""

import os
import subprocess
import sys

# A run measures for --seconds (at most 60) plus its warm-up and set-up
# builds; anything past this is a hang.
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "./dpcbench/dpcbench.exe"],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("dpcbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "dpcbench", "dpcbench.exe")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(root, "_build", "dpcbench")]
    try:
        return subprocess.run([exe] + args, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("dpcbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
