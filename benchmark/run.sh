#!/usr/bin/env bash
# Builds the `vet` daemon and the benchmark from this checkout into one
# target directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p addon-sig --bin vet >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
