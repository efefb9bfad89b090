#!/bin/sh
# Bench regression gate: run the fig8/fig9 forwarding benchmarks at the
# same scale and seed as the checked-in baseline (BENCH_PR8.json) and fail
# if events/s regressed by more than the tolerance on either figure.
#
# Wall-clock throughput is noisy, so the tolerance is deliberately wide
# (15%); the gate catches algorithmic regressions (an accidental O(n^2),
# a lost index), not scheduler jitter. Improvements never fail the gate.
#
# When the baseline carries a "queries" figure, the gate additionally
# runs the query-storm figure and compares each scheme's warm-cache p99
# series. Those latencies are modeled (deterministic), so a regression
# there means the cache or the re-execution walk got algorithmically
# worse, not that the builder was busy.
#
# Last, the allocation gate runs dpcbench on every workload listed in
# BENCH_PR33.json (all five) and fails when a workload's allocated words
# per event or its peak heap exceed the baseline by more than their
# tolerances (2 % and 5 %, the benchmark's own bounds). Both are counted,
# not timed: allocation repeats from run to run of one binary (dpcbench's
# figure lags the exact count by up to a minor heap, but by the same
# amount each run), and so does the
# peak heap except on fwd-sharded, whose two domains collect at varying
# moments (about 2.5 % apart), so unlike events/s they can be gated
# tightly.
#
# The three checks are independent: each runs to completion and prints
# its verdict, and the script exits non-zero at the end if any of them
# failed, so a failing events/s check never hides the other two.
#
#   scripts/bench_gate.sh [baseline.json]
#
# Environment:
#   DPC_BENCH_GATE_SKIP=1   skip entirely (e.g. on known-noisy builders)
set -eu

cd "$(dirname "$0")/.."

baseline=${1:-BENCH_PR8.json}
# The events/s and query-p99 bound: 15 %, fixed.
tol=0.15

if [ "${DPC_BENCH_GATE_SKIP:-0}" = "1" ]; then
    echo "bench gate skipped (DPC_BENCH_GATE_SKIP=1)"
    exit 0
fi

if ! command -v python3 >/dev/null 2>&1; then
    # Loud, not silent: a builder without python3 runs NO throughput gate
    # at all. Interactive use degrades to a warning, but CI builders are
    # expected to carry python3 — there the gate silently not running is a
    # misconfiguration, so fail instead of letting a regression ship.
    if [ "${CI:-0}" = "1" ]; then
        echo "bench gate FAILED: python3 unavailable on a CI builder (set DPC_BENCH_GATE_SKIP=1 to waive)" >&2
        exit 1
    fi
    echo "::warning::bench gate SKIPPED: python3 unavailable, fig8/fig9 throughput unchecked" >&2
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "bench gate: baseline $baseline not found" >&2
    exit 1
fi

seed=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['seed'])" "$baseline")
figs="--fig 8 --fig 9"
with_queries=0
if python3 -c "import json,sys; sys.exit(0 if 'queries' in json.load(open(sys.argv[1]))['figures'] else 1)" "$baseline"; then
    figs="$figs --fig queries"
    with_queries=1
fi

current=$(mktemp /tmp/dpc-bench-gate.XXXXXX.json)
trap 'rm -f "$current"' EXIT

# The names of the checks that failed, in order.
failed=""

echo "== bench gate: $figs, seed $seed, vs $baseline (tolerance ${tol}) =="
if ! dune exec bench/main.exe -- $figs --seed "$seed" --json "$current" >/dev/null; then
    echo "bench run FAILED: no figures to compare"
    rm -f "$current"
fi

echo "== events/s gate: fig8, fig9 =="
python3 - "$baseline" "$current" "$tol" <<'PY' || failed="$failed events/s"
import json, os, sys

baseline_path, current_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
if not os.path.exists(current_path):
    sys.exit("events/s gate FAILED: the bench run produced no figures")
baseline = json.load(open(baseline_path))
current = json.load(open(current_path))

assert current["schema"] == baseline["schema"] == "dpc-bench-v1"
if current["scale"] != baseline["scale"]:
    sys.exit("events/s gate FAILED: scale mismatch (%s vs %s)" % (current["scale"], baseline["scale"]))

failed = False
for fig in ("fig8", "fig9"):
    base = baseline["figures"][fig]["events_per_s"]
    cur = current["figures"][fig]["events_per_s"]
    ratio = cur / base
    verdict = "ok" if ratio >= 1.0 - tol else "REGRESSED"
    print("%s: %.1f events/s vs baseline %.1f (%.2fx) %s" % (fig, cur, base, ratio, verdict))
    if verdict != "ok":
        failed = True

if failed:
    sys.exit("events/s gate FAILED: events/s regressed more than %.0f%%" % (tol * 100))
print("events/s gate ok")
PY

# Query-storm p99 gate: modeled latency, lower is better, so the check
# is inverted — the current warm-cache p99 may not exceed the baseline
# by more than the tolerance.
if [ "$with_queries" = "1" ]; then
    echo "== query p99 gate: modeled warm-cache p99 =="
    python3 - "$baseline" "$current" "$tol" <<'PY' || failed="$failed query-p99"
import json, os, sys

baseline_path, current_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
if not os.path.exists(current_path):
    sys.exit("query p99 gate FAILED: the bench run produced no figures")
base_queries = json.load(open(baseline_path))["figures"]["queries"]
cur_queries = json.load(open(current_path))["figures"].get("queries", {"series": {}})

failed = False
for label, points in sorted(base_queries["series"].items()):
    if not label.endswith("p99 us (warm cache)"):
        continue
    base_p99 = points[-1][1]
    cur_points = cur_queries["series"].get(label)
    if not cur_points:
        print("queries %s: series missing from current run REGRESSED" % label)
        failed = True
        continue
    cur_p99 = cur_points[-1][1]
    ratio = cur_p99 / base_p99
    verdict = "ok" if ratio <= 1.0 + tol else "REGRESSED"
    print("queries %s: %d us vs baseline %d (%.2fx) %s" % (
        label, cur_p99, base_p99, ratio, verdict))
    if verdict != "ok":
        failed = True

if failed:
    sys.exit("query p99 gate FAILED: warm-cache p99 grew more than %.0f%%" % (tol * 100))
print("query p99 gate ok")
PY
fi

alloc_baseline=BENCH_PR33.json
echo "== allocation gate: dpcbench alloc_words_per_event and peak_heap_mb vs $alloc_baseline =="
python3 - "$alloc_baseline" <<'PY' || failed="$failed allocation"
import json, subprocess, sys

baseline = json.load(open(sys.argv[1]))
assert baseline["schema"] == "dpc-alloc-v2"
tol = baseline["tolerance"]
failed = False
for workload in sorted(baseline["alloc_words_per_event"]):
    run = subprocess.run(
        ["python3", "dpcbench/run.py", "--workload", workload, "--seed", str(baseline["seed"]),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("%s: dpcbench exited %d REGRESSED" % (workload, run.returncode))
        failed = True
        continue
    metrics = json.loads(lines[-1])["metrics"]
    for metric, unit in (("alloc_words_per_event", "words/event"), ("peak_heap_mb", "MB")):
        base = baseline[metric][workload]
        cur = metrics[metric]["value"]
        ratio = cur / base
        verdict = "ok" if ratio <= 1.0 + tol[metric] else "REGRESSED"
        print("%s: %.1f %s vs baseline %.1f (%.3fx) %s" % (workload, cur, unit, base, ratio, verdict))
        if verdict != "ok":
            failed = True

if failed:
    sys.exit("allocation gate FAILED: words/event grew more than %.0f%% or peak heap more than %.0f%%"
             % (tol["alloc_words_per_event"] * 100, tol["peak_heap_mb"] * 100))
print("allocation gate ok")
PY

if [ -n "$failed" ]; then
    echo "bench gate FAILED:$failed" >&2
    exit 1
fi
echo "bench gate ok"
