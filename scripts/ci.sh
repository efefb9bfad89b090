#!/bin/sh
# Continuous-integration entry point: formatting (when the tool is
# available), full build, full test suite. Run from the repo root or via
# `make ci`.
set -eu

cd "$(dirname "$0")/.."

# Formatting is advisory-gated: ocamlformat is not part of the minimal
# toolchain, so the check only runs where it is installed (and never
# rewrites — CI must not mutate the tree).
if command -v ocamlformat >/dev/null 2>&1; then
    echo "== ocamlformat check =="
    dune build @fmt
else
    echo "== ocamlformat not installed; skipping format check =="
fi

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

# The export contract, two rules over every lib/ interface, with a name
# counting only through its module (a qualified path, an alias or an
# open) in a file outside that module. A shipped library's value (every
# lib/* but lib/testkit) needs a caller outside test/ and lib/testkit;
# a value only its own module uses stays out of the .mli. A value of a
# module's For_testing submodule, a test seam into its private state,
# may be named from test/ and lib/testkit only. The self-test runs the
# checker on tiny trees first, so a checker that stopped failing shows.
echo "== exports =="
python3 scripts/check_exports_selftest.py
python3 scripts/check_exports.py
echo "exports ok"

# Chaos sweeps at full width: 50 seeded DELP instances per scheme under a
# drop/duplicate/delay transport, and 25 under seeded crash/restart
# schedules with durable recovery — each oracle-checked against a
# fault-free run. Seeds are pinned inside the tests, so this is
# deterministic.
echo "== chaos + crash sweeps (full, pinned seeds) =="
DPC_CHAOS_FULL=1 dune exec test/test_chaos.exe >/dev/null
echo "chaos + crash sweeps ok"

# Crash/recovery unit suites (also part of dune runtest; rerun here so a
# regression names the failing group in the CI log).
echo "== crash suites (quick) =="
make crash >/dev/null
echo "crash suites ok"

# Partition faults: the partition oracle at full width (seeded link
# outage plans — splits, one-way cuts, flapping links, random schedules,
# all outlasting the retry budget), the partitionable/backoff/suspension
# unit group, degraded queries, and the partitions bench figure (heal
# latency + retransmit storm, jitter on/off). Pinned seeds throughout.
echo "== partition-fault suites (full, pinned seeds) =="
make partitions >/dev/null
echo "partition suites ok"

# Multicore determinism: the sharded runtime must reproduce the
# sequential digests at 1/2/4 domains — clean, under hashed faults, and
# under crash schedules — plus the partition and concurrent-metrics
# suites and the scaling figure's own digest shape check (`make scaling`).
echo "== domain-scaling determinism sweep (1/2/4 domains) =="
make scaling >/dev/null
echo "scaling sweep ok"

# Query serving tier: full-width cache/pagination/storm suites plus the
# queries bench figure, which carries its own shape checks (>= 50% hit
# rate, warm p99 faster than cache-off, degraded crash-window storm).
echo "== query serving tier sweep (full, pinned seeds) =="
make queries >/dev/null
echo "queries sweep ok"

# Real processes: the dpcd cluster oracle — three daemons over Unix
# sockets, a mid-run kill -9 of node 1 with recovery from disk, digests
# byte-identical to the simulator for all four schemes. Unix-domain
# sockets are a hard dependency; skippable only where they are absent
# (or explicitly with DPC_SKIP_PROCS=1 on restricted builders).
if [ "${DPC_SKIP_PROCS:-0}" = "1" ]; then
    echo "== dpcd cluster oracle skipped (DPC_SKIP_PROCS=1) =="
else
    # Each run removes the temp directory it makes once every scheme
    # passes, and keeps it (printing its path) on a failure.
    echo "== dpcd cluster oracle (3 real processes, kill -9 + partition + recovery) =="
    dune exec bin/dpcd.exe -- cluster
    echo "== dpcd cluster oracle, wire chaos on =="
    dune exec bin/dpcd.exe -- cluster --chaos
    echo "== dpcd cluster soak (bounded outbox ledger under sustained traffic) =="
    dune exec bin/dpcd.exe -- cluster --soak
fi

# API documentation must build warning-free — advisory-gated like
# ocamlformat: odoc is not part of the minimal toolchain.
if command -v odoc >/dev/null 2>&1; then
    echo "== odoc (dune build @doc) =="
    dune build @doc
else
    echo "== odoc not installed; skipping doc build =="
fi

# Bench smoke: the tiny fig9 run must finish quickly and produce a valid
# machine-readable report with all three scheme series present.
echo "== bench smoke (tiny fig9 + json report) =="
bench_json=$(mktemp /tmp/dpc-bench-smoke.XXXXXX.json)
trap 'rm -f "$bench_json"' EXIT
dune exec bench/main.exe -- --fig 9 --tiny --json "$bench_json" >/dev/null
python3 - "$bench_json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "dpc-bench-v1", doc.get("schema")
fig9 = doc["figures"]["fig9"]
assert fig9["wall_clock_s"] > 0.0
assert fig9["events"] > 0
for scheme in ("ExSPAN", "Basic", "Advanced"):
    points = fig9["series"][scheme]
    assert points, scheme
print("bench json ok: fig9 %.3fs, %d events, %d series" % (
    fig9["wall_clock_s"], fig9["events"], len(fig9["series"])))
PY

# Determinism: two same-seed runs of every figure in the registry
# (bench/figures.ml) must agree byte for byte once the outputs each
# figure declares as wall clock are stripped. bench/golden.exe runs the
# figures and strips them; dune runtest also diffs its output against
# the checked-in bench/figures.golden. Modeled query latencies are
# deterministic and therefore NOT stripped.
echo "== bench determinism (every figure, tiny, seed 7, two runs) =="
dune build bench/main.exe bench/golden.exe
det_a=$(mktemp /tmp/dpc-bench-det-a.XXXXXX.txt)
det_b=$(mktemp /tmp/dpc-bench-det-b.XXXXXX.txt)
trap 'rm -f "$bench_json" "$det_a" "$det_b"' EXIT
./_build/default/bench/golden.exe ./_build/default/bench/main.exe > "$det_a"
./_build/default/bench/golden.exe ./_build/default/bench/main.exe > "$det_b"
if diff "$det_a" "$det_b" >&2; then
    echo "bench determinism ok"
else
    echo "bench determinism FAILED: same-seed runs differ" >&2
    exit 1
fi

# Throughput regression gate: fig8/fig9 events/s vs the checked-in
# baseline (BENCH_PR8.json), >15% regression fails — plus the queries
# figure's modeled warm-cache p99 and the dpcbench allocation check.
# Wall-clock based, so it can be skipped on noisy builders with
# DPC_BENCH_GATE_SKIP=1. It runs after the smoke and the determinism
# diff so that a failing gate (set -e still stops CI here) cannot keep
# those two steps from running.
sh scripts/bench_gate.sh

echo "== ci ok =="
