#!/usr/bin/env bash
# Builds the benchmark offline, lints it, runs the smoke set and then the
# full set.  Usage, from anywhere:
#
#   benchmark/run.sh            # lint + tests + smoke set + full set -> out/set.json
#   benchmark/run.sh --smoke    # stop after the smoke set (a few seconds)
#   PASSES=10 benchmark/run.sh  # ten seeds per workload: the stability criterion
#
# Compare two sets with:  target/release/bench compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")"

target_dir="${CARGO_TARGET_DIR:-target}"
bench="$target_dir/release/bench"
meta=(
  --meta "nproc=$(nproc)"
  --meta "kernel=$(uname -sr)"
  --meta "rustc=$(rustc --version)"
  --meta "commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)"
)

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo build --offline --release
cargo test --offline --release --quiet

mkdir -p out
"$bench" set --smoke --seconds 0.2 --passes 2 --out out/set-smoke.json "${meta[@]}"
if [[ "${1:-}" == "--smoke" ]]; then
  exit 0
fi
"$bench" set --passes "${PASSES:-3}" --out out/set.json "${meta[@]}"
