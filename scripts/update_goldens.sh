#!/usr/bin/env bash
# Regenerates the golden regression fixtures under tests/golden/:
# re-captures any *missing* mini-trace (committed traces are never
# overwritten — they are the stable reference streams), rewrites every
# golden report text from the current engine, and rewrites the Table 1
# transition listing (table1_transitions.csv). Review and commit the diff;
# CI's golden-reports job and the Table 1 pin fail on any un-blessed drift.
#
#   scripts/update_goldens.sh             bless goldens (+ capture missing traces)
#   scripts/update_goldens.sh --migrate   also re-encode committed traces as v2
#
# --migrate is record-preserving: it streams each tests/golden/*.trace
# through `bash-experiments trace migrate`, which re-containers the same
# reference stream in the current (v2 chunked) format. The pinned
# v1-compat fixture (zipf.v1.trace) is deliberately excluded — its whole
# job is to stay v1 forever so the trace-compat CI step keeps proving
# backward-compatible decode.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--migrate" ]]; then
  cargo build --release -p bash-experiments
  for f in tests/golden/*.trace; do
    [[ "$f" == *.v1.trace ]] && continue
    ./target/release/bash-experiments trace migrate "$f" "$f.v2"
    mv "$f.v2" "$f"
  done
  echo "traces re-encoded as v2; replaying to confirm the goldens still match..."
fi

BASH_BLESS=1 cargo test --release --test golden_reports -- --nocapture
cargo run --release -p bash-experiments -- --out results table1
cp results/table1_transitions.csv tests/golden/table1_transitions.csv
echo "goldens updated; review with: git diff tests/golden"
