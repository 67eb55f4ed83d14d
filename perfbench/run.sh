#!/usr/bin/env bash
# Builds the benchmark and the `aarc` binary from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-sim --seed 1 --seconds 20 --trace 0
#
# Workloads: sweep-sim, sweep-bo, serve-open. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); run output (daemon state and
# stderr, trace files) goes to .bench_run.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p aarc-cli --bin aarc >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --aarc "$CARGO_TARGET_DIR/release/aarc" "$@"
