#!/usr/bin/env python3
"""Fail on an exported value nothing else names.

Every `val` of lib/*/*.mli must appear, as a whole word, in some file of
lib, bin, bench, dpcbench, examples or test other than its own module's
.ml and .mli. A value only its own module uses belongs in the .ml alone.

    python3 scripts/check_exports.py
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ["lib", "bin", "bench", "dpcbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)


def files():
    for top in SEARCHED:
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            for name in names:
                yield os.path.join(dirpath, name)


def main():
    texts = {}
    for path in files():
        with open(path, encoding="utf-8", errors="replace") as f:
            texts[path] = f.read()
    unused = []
    for mli in sorted(glob.glob(os.path.join(ROOT, "lib", "*", "*.mli"))):
        own = (mli, mli[:-1])
        for name in VAL.findall(texts[mli]):
            word = re.compile(r"(?<![\w'])" + re.escape(name) + r"(?![\w'])")
            if not any(word.search(text) for path, text in texts.items() if path not in own):
                unused.append("%s: val %s" % (os.path.relpath(mli, ROOT), name))
    for line in unused:
        print("exported but named nowhere else:", line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
