#!/usr/bin/env bash
# Same-behaviour check between two revisions: every experiment CSV and
# every example's output, compared by checksum.
#
#   scripts/same_outputs.sh <base-rev> <change-rev|.>
#
# `.` as the change means the working tree, uncommitted edits included.
# Each side is built once, offline, in release mode: a revision gets its
# own detached `git worktree` and each side its own CARGO_TARGET_DIR, all
# under one temporary directory (`$TMPDIR`, else /tmp) that is removed,
# worktrees and all, when the script exits.
#
# From each side's tree it then runs
#
#   bash-experiments --out <dir> --scale 0.3 fig2 fig3 fig4 fig10 fig11 \
#       fig12 table1 scenarios topology hierarchy verify chaos
#   bash-experiments wedge-selftest
#
# and the seven examples CI runs: quickstart, workload_comparison,
# adaptive_phases, bandwidth_sweep, tester_smoke, tester_stress and
# trace_roundtrip. Every CSV the experiments write, and each command's
# stdout, stderr and exit code, are compared by checksum; each side's
# output directory reads as `<out>` in what is compared. A command that
# exits non-zero is not itself a difference (`wedge-selftest` must exit
# 1 on both sides); a different exit code is.
#
# Prints what differs and exits 1 on any difference, 0 when the two
# sides agree on everything.
set -euo pipefail

[[ $# -eq 2 ]] || {
  echo "usage: $0 <base-rev> <change-rev|.>" >&2
  exit 2
}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/same.XXXXXX")
worktrees=()
cleanup() {
  for wt in "${worktrees[@]}"; do
    git -C "$repo" worktree remove --force "$wt" >/dev/null 2>&1 || true
  done
  git -C "$repo" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

experiments=(fig2 fig3 fig4 fig10 fig11 fig12 table1 scenarios topology hierarchy verify chaos)
examples=(quickstart workload_comparison adaptive_phases bandwidth_sweep tester_smoke
  tester_stress trace_roundtrip)

# Builds one side's experiments binary and examples, recording the source
# tree they were built from, where that side's commands run.
declare -A src
build() { # build <side> <rev|.>
  local side=$1 rev=$2
  if [[ $rev == . ]]; then
    src[$side]=$repo
  else
    src[$side]=$work/src-$side
    git -C "$repo" worktree add --quiet --detach "${src[$side]}" \
      "$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
    worktrees+=("${src[$side]}")
  fi
  echo "same: building $side ($rev) from ${src[$side]}"
  (cd "${src[$side]}" && CARGO_TARGET_DIR=$work/target-$side \
    cargo build --release --offline --quiet -p bash-experiments -p bash --bins --examples)
}

# Runs one command from the side's tree, keeping its stdout, stderr and
# exit code under $work/cmp-<side>/<name>.
record() { # record <side> <name> <command...>
  local side=$1 name=$2 code=0
  shift 2
  mkdir -p "$work/cmp-$side"
  (cd "${src[$side]}" && "$@") >"$work/cmp-$side/$name.out" 2>"$work/cmp-$side/$name.err" ||
    code=$?
  echo "$code" >"$work/cmp-$side/$name.code"
  sed -i "s#$work/out-$side#<out>#g" "$work/cmp-$side/$name.out" "$work/cmp-$side/$name.err"
  echo "same: $side $name exited $code"
}

run_side() { # run_side <side>
  local side=$1 bin=$work/target-$1/release
  record "$side" experiments "$bin/bash-experiments" --out "$work/out-$side" --scale 0.3 \
    "${experiments[@]}"
  record "$side" wedge-selftest "$bin/bash-experiments" --out "$work/out-$side" wedge-selftest
  for ex in "${examples[@]}"; do
    record "$side" "$ex" "$bin/examples/$ex"
  done
}

build base "$1"
build change "$2"
run_side base
run_side change

# Checksums every compared file of a side, keyed by its relative name.
sums() { # sums <side>
  (cd "$work/out-$1" && find . -name '*.csv' -type f -exec sha256sum {} + | sed 's#  \./#  csv/#')
  (cd "$work/cmp-$1" && sha256sum -- *)
}
sums base | sort -k 2 >"$work/base.sums"
sums change | sort -k 2 >"$work/change.sums"

differ=$(join -1 2 -2 2 -a 1 -a 2 -e missing -o 0,1.1,2.1 "$work/base.sums" "$work/change.sums" |
  awk '$2 != $3 { print $1 }')
compared=$(wc -l <"$work/base.sums")
if [[ -z $differ ]]; then
  echo "same: no difference in $compared compared files"
  exit 0
fi
echo "same: these differ between $1 and $2:"
for name in $differ; do
  echo "  $name"
  case $name in
    csv/*) a=$work/out-base/${name#csv/} b=$work/out-change/${name#csv/} ;;
    *) a=$work/cmp-base/$name b=$work/cmp-change/$name ;;
  esac
  if [[ -f $a && -f $b ]]; then
    diff "$a" "$b" | head -n 10 | sed 's/^/    /' || true
  fi
done
exit 1
