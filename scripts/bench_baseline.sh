#!/usr/bin/env bash
# Produces BENCH_engine.json — the engine perf baseline (events/sec per
# protocol, queue churn, hierarchical scale points, block-table lookups,
# sweep wall time serial vs. parallel). Run from anywhere:
#
#   scripts/bench_baseline.sh [output.json]
#
# The JSON is the artifact CI's bench-smoke job uploads; commit-to-commit
# comparisons of it are the repo's perf trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_engine.json}"
cargo run --release -q -p bash-bench --bin engine_baseline -- "$OUT"

# Fail loudly if the bench silently produced nothing: CI uploads this file
# as the perf-trajectory artifact, and an empty artifact is worse than a
# red job.
if [[ ! -s "$OUT" ]]; then
  echo "bench_baseline: $OUT is missing or empty" >&2
  exit 1
fi
if ! grep -q '"events_per_sec"' "$OUT"; then
  echo "bench_baseline: $OUT has no events_per_sec section — bench output is malformed" >&2
  exit 1
fi

# Calendar-queue gate, a ratio (not an absolute timing) so shared-runner
# noise mostly cancels: queue churn at 256-node load must hold the
# calendar's scaling win (>= 3.0x over the heap it replaced).
ratio() { # ratio <key>  -> prints the numeric value of "key": N.NNN
  sed -n 's/^[[:space:]]*"'"$1"'":[[:space:]]*\([0-9.]*\).*/\1/p' "$OUT" | head -n1
}
fail=0
r256="$(ratio calendar_vs_heap_256)"
if [[ -z "$r256" ]]; then
  echo "bench_baseline: $OUT has no calendar_vs_heap_256 — bench output is malformed" >&2
  fail=1
elif awk -v r="$r256" 'BEGIN { exit !(r < 3.0) }'; then
  echo "bench_baseline: calendar_vs_heap_256 = $r256 < 3.0 — calendar queue lost its scaling win" >&2
  fail=1
fi

# Scale gate: the 1024-node hierarchical point must exist — its absence
# means the scale sweep silently stopped running past the old 256-node
# cap.
if [[ -z "$(ratio events_per_sec_1024)" ]]; then
  echo "bench_baseline: $OUT has no events_per_sec_1024 — scale section missing" >&2
  fail=1
fi
# Layer point: the block-table lookup object must exist. Presence only —
# its ns-per-lookup numbers follow host load too closely for a ratio gate.
if ! grep -q '"blocktable": {' "$OUT"; then
  echo "bench_baseline: $OUT has no blocktable section — block-table layer point missing" >&2
  fail=1
fi
# Memory gate: peak RSS after the scale section (the 4096-node point
# dominates it) must stay under 1 GB. Queued events carry arena handles,
# and a drained calendar bucket's buffer is kept only in a fixed spare
# list (16 buffers of at most 32 slots; larger ones are freed), so the
# queue's memory follows the live event count plus a constant; either
# regression multiplies it.
rss="$(ratio peak_rss_mb)"
if [[ -z "$rss" ]]; then
  echo "bench_baseline: $OUT has no peak_rss_mb — scale section malformed" >&2
  fail=1
elif awk -v r="$rss" 'BEGIN { exit !(r > 1024) }'; then
  echo "bench_baseline: peak_rss_mb = $rss > 1024 — event queue memory no longer follows live events" >&2
  fail=1
fi
exit "$fail"
