#!/usr/bin/env bash
# A sampling profile of one benchmark workload's measured window, on a
# host with no `perf` and no hardware counters.
#
#   scripts/profile.sh <workload> [seconds] [seed] [--insn <fn>] [--top N]
#
# Builds perfbench with frame pointers and debug info into its own target
# directory (target/profile-fp), preloads scripts/profile/sampler.c (a
# 10 kHz wall-clock SIGPROF sampler that walks the frame-pointer chain),
# runs `perfbench --workload <workload> --seconds <seconds> --seed <seed>`
# (defaults: 5 s, seed 1), and resolves the samples with nm/addr2line
# (scripts/profile/resolve.py). Only samples whose stack passes through
# `System::try_finish`, the measured window, are counted. It prints each
# function's self and inclusive share; `--insn <fn>` adds the hottest
# instructions of the function whose name contains <fn>.
#
# The frame-pointer build exists for attribution only: it is not the
# build the benchmark measures, and the sampler costs time of its own.
# Speed claims come from scripts/ab.sh on the normal build.
#
# Exits non-zero if no sample lands in the window.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
positional=()
resolve_args=()
while [[ $# -gt 0 ]]; do
  case $1 in
    --insn | --top)
      [[ $# -ge 2 ]] || { echo "profile: $1 needs a value" >&2; exit 2; }
      resolve_args+=("$1" "$2")
      shift 2
      ;;
    *) positional+=("$1"); shift ;;
  esac
done
[[ ${#positional[@]} -ge 1 && ${#positional[@]} -le 3 ]] || {
  echo "usage: $0 <workload> [seconds] [seed] [--insn <fn>] [--top N]" >&2
  exit 2
}
workload=${positional[0]}
seconds=${positional[1]:-5}
seed=${positional[2]:-1}

build=$root/target/profile-fp
mkdir -p "$build"
cc -O2 -shared -fPIC -o "$build/sampler.so" "$root/scripts/profile/sampler.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=true \
  CARGO_TARGET_DIR=$build \
  cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"

run=$(mktemp -d "$build/run.XXXXXX")
trap 'rm -rf "$run"' EXIT
(cd "$run" && LD_PRELOAD=$build/sampler.so "$build/release/perfbench" \
  --workload "$workload" --seconds "$seconds" --seed "$seed" >perfbench.out)
grep -E '^(sim_ns_per_s|error_rate) ' "$run/perfbench.out"
python3 "$root/scripts/profile/resolve.py" "$build/release/perfbench" "$run" \
  ${resolve_args[@]+"${resolve_args[@]}"}
