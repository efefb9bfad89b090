#!/usr/bin/env python3
"""Self-test of scripts/check_exports.py on trees of tiny modules.

Each case copies the checker into a fresh temporary tree (the checker
finds its root from its own path), writes a few one-line modules, runs
it there and checks its verdict:

  - a shipped `val` named only under test/ fails;
  - a `For_testing` val named from bench/ fails;
  - a lib/testkit val named only from test/ passes.

    python3 scripts/check_exports_selftest.py
"""

import os
import shutil
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_exports.py")

CASES = [
    (
        "shipped val named only by a test",
        {
            "lib/a/a.mli": "val f : int\n",
            "lib/a/a.ml": "let f = 1\n",
            "test/t.ml": "let _ = A.f\n",
        },
        1,
        "exported but named only by tests: lib/a/a.mli: val A.f",
    ),
    (
        "For_testing val named from bench",
        {
            "lib/a/a.mli": "module For_testing : sig\n  val g : int\nend\n",
            "lib/a/a.ml": "module For_testing = struct\n  let g = 1\nend\n",
            "test/t.ml": "let _ = A.For_testing.g\n",
            "bench/b.ml": "let _ = A.For_testing.g\n",
        },
        1,
        "a For_testing value named outside the tests: lib/a/a.mli: val A.For_testing.g, in bench/b.ml",
    ),
    (
        "testkit val named only by a test",
        {
            "lib/testkit/k.mli": "val h : int\n",
            "lib/testkit/k.ml": "let h = 1\n",
            "test/t.ml": "let _ = K.h\n",
        },
        0,
        "",
    ),
]


def run(files):
    with tempfile.TemporaryDirectory(prefix="dpc-exports-") as root:
        os.makedirs(os.path.join(root, "scripts"))
        shutil.copy(CHECKER, os.path.join(root, "scripts", "check_exports.py"))
        for path, text in files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write(text)
        p = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "check_exports.py")],
            capture_output=True,
            text=True,
        )
        return p.returncode, p.stdout


def main():
    failed = 0
    for name, files, code, line in CASES:
        got, out = run(files)
        if got != code or line not in out:
            failed += 1
            print("FAIL %s: exit %d (want %d), output:\n%s" % (name, got, code, out))
        else:
            print("ok   %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
