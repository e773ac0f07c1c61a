#!/usr/bin/env bash
# Builds the simulator's `simrun` binary and the benchmark driver from
# source, then runs the driver from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p kagura-bench --bin simrun >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --simrun "$target/release/simrun" "$@"
