#!/usr/bin/env python3
"""Mutation score of tier-1 over the mutants in scripts/mutants.json.

For each mutant: export the committed tree (git archive HEAD) into a fresh
directory, replace the mutant's `from` text (which must occur exactly once
in its file) with its `to` text, then run `dune build && dune runtest`
under a timeout. A mutant is killed when that fails, survived when it
passes, timed out when it runs past the limit. The unmutated tree runs
first and must pass, or no kill would mean anything. Exits 1 if any
mutant survived or the unmutated tree failed.

    python3 scripts/mutants.py [--work DIR]

Uncommitted edits are not part of the exported tree: commit first.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tier-1 takes under a minute from a fresh export; a mutant that makes it
# loop is cut off here.
TIMEOUT_S = 900


def export_tree(dest):
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "HEAD"], check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def apply(tree, mutant):
    path = os.path.join(tree, mutant["file"])
    with open(path) as f:
        text = f.read()
    count = text.count(mutant["from"])
    if count != 1:
        sys.exit("%s: %r occurs %d times in %s" % (mutant["id"], mutant["from"], count, mutant["file"]))
    with open(path, "w") as f:
        f.write(text.replace(mutant["from"], mutant["to"]))


def tier1(tree):
    """'killed', 'survived' or 'timed out'."""
    proc = subprocess.Popen(
        ["sh", "-c", "dune build --root . && dune runtest --root ."],
        cwd=tree,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "survived" if proc.wait(timeout=TIMEOUT_S) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timed out"
    finally:
        # Its own session, so an interrupt of this script reaches it only
        # from here.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="directory for the exported trees (default: a temp dir)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "scripts", "mutants.json")) as f:
        mutants = json.load(f)
    results = []
    for mutant in [None] + mutants:
        tree = tempfile.mkdtemp(prefix="dpc-mutant-", dir=args.work)
        try:
            export_tree(tree)
            if mutant:
                apply(tree, mutant)
            start = time.monotonic()
            outcome = tier1(tree)
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        elapsed = time.monotonic() - start
        if mutant is None:
            if outcome != "survived":
                print("tier-1 %s on the unmutated tree" % ("failed" if outcome == "killed" else outcome))
                return 1
            print("unmutated tree passes tier-1 in %.0f s" % elapsed, flush=True)
            continue
        results.append(outcome)
        print("%-9s %-20s %5.0f s  %s" % (outcome, mutant["id"], elapsed, mutant["what"]), flush=True)
    killed = results.count("killed")
    print("score: %d of %d killed, %d survived, %d timed out"
          % (killed, len(results), results.count("survived"), results.count("timed out")))
    return 1 if "survived" in results else 0


if __name__ == "__main__":
    sys.exit(main())
