#!/usr/bin/env bash
# Paired comparison of two revisions on one benchmark workload.
#
#   scripts/ab.sh <base-rev> <change-rev|.> <workload> <pairs> [seconds] [seed]
#
# `.` as the change means the working tree, uncommitted edits included.
# Each side's perfbench is built once, offline, with the same settings:
# a revision gets its own detached `git worktree` and each side its own
# CARGO_TARGET_DIR, all under one temporary directory (`$TMPDIR`, else
# /tmp) that is removed, worktrees and all, when the script exits.
#
# Then `pairs` pairs of runs of `perfbench --workload <workload>
# --seconds <seconds> --seed <seed>` (defaults: 30 s, seed 1), with the
# side that runs first alternating from pair to pair. Every run's six
# end-to-end metrics are printed as it finishes; at the end, for each
# metric, each side's median and quartiles, the change's wins (ties count
# for neither) and the median ratio change/base, and whether the modelled
# metrics (`sim_ops_per_us`, `sim_miss_latency_ns`) are bit-identical
# across every run of both sides.
#
# Exits non-zero if a build or a run fails, or if any run reports a
# failed simulated run (`failed > 0`).
set -euo pipefail

usage() {
  echo "usage: $0 <base-rev> <change-rev|.> <workload> <pairs> [seconds] [seed]" >&2
  exit 2
}
[[ $# -ge 4 && $# -le 6 ]] || usage
base_rev=$1
change_rev=$2
workload=$3
pairs=$4
seconds=${5:-30}
seed=${6:-1}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
worktrees=()
cleanup() {
  for wt in "${worktrees[@]}"; do
    git -C "$repo" worktree remove --force "$wt" >/dev/null 2>&1 || true
  done
  git -C "$repo" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

# Builds one side's perfbench into $work/perfbench-<side> and records the
# source tree it was built from, where that side's runs start.
declare -A src
build() { # build <side> <rev|.>
  local side=$1 rev=$2
  if [[ $rev == . ]]; then
    src[$side]=$repo
  else
    src[$side]=$work/src-$side
    git -C "$repo" worktree add --quiet --detach "${src[$side]}" "$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
    worktrees+=("${src[$side]}")
  fi
  echo "ab: building $side ($rev) from ${src[$side]}"
  CARGO_TARGET_DIR=$work/target-$side \
    cargo build --release --offline --quiet --manifest-path "${src[$side]}/perfbench/Cargo.toml"
  cp "$work/target-$side/release/perfbench" "$work/perfbench-$side"
}
build base "$base_rev"
build change "$change_rev"

# One run; appends `<side> <pair> <json result line>` to the run log.
run() { # run <side> <pair>
  local side=$1 pair=$2 result
  result=$(cd "${src[$side]}" && "$work/perfbench-$side" --workload "$workload" \
    --seconds "$seconds" --seed "$seed" | tail -n 1)
  printf '%s %s %s\n' "$side" "$pair" "$result" >>"$work/runs.log"
  python3 - "$repo/BENCHMARK.json" "$side" "$pair" "$result" <<'PY'
import json, sys
names = [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]]
side, pair, res = sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
vals = " ".join(f"{n}={res['metrics'][n]['value']:.6g}" for n in names)
print(f"pair {pair:>2} {side:<6} failed={res['failed']} {vals}", flush=True)
PY
}

echo "ab: $workload, $pairs pairs of $seconds s runs, seed $seed"
for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then run base "$p"; run change "$p"; else run change "$p"; run base "$p"; fi
done

python3 - "$repo/BENCHMARK.json" "$work/runs.log" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))["end_to_end"]
runs = {"base": {}, "change": {}}
failed = 0
for line in open(sys.argv[2]):
    side, pair, res = line.split(" ", 2)
    res = json.loads(res)
    failed += res["failed"]
    runs[side][int(pair)] = res["metrics"]

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

pairs = sorted(runs["base"])
print(f"\n{'metric':<22} {'base q1 / median / q3':>40} {'change q1 / median / q3':>40} {'wins':>7} {'ratio':>8}")
for m in spec:
    name, higher = m["name"], m["better"] == "higher"
    b = [runs["base"][p][name]["value"] for p in pairs]
    c = [runs["change"][p][name]["value"] for p in pairs]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
    bq, cq = quartiles(b), quartiles(c)
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    fmt = lambda q: f"{q[0]:.6g} / {q[1]:.6g} / {q[2]:.6g}"
    print(f"{name:<22} {fmt(bq):>40} {fmt(cq):>40} {wins:>3}/{len(pairs):<3} {ratio:>8.4f}")
    if name == "sim_ns_per_s":
        gain, spread = cq[1] - bq[1], bq[2] - bq[0]
        print(f"{'':<22} median gain {gain:.6g} vs base quartile spread {spread:.6g}: "
              f"{'outside' if abs(gain) > spread else 'inside'} the spread")
for name in ("sim_ops_per_us", "sim_miss_latency_ns"):
    vals = {repr(runs[s][p][name]["value"]) for s in runs for p in pairs}
    print(f"{name} bit-identical across sides: {'yes' if len(vals) == 1 else 'NO ' + str(sorted(vals))}")
if failed:
    print(f"ab: {failed} simulated runs failed", file=sys.stderr)
    sys.exit(1)
PY
