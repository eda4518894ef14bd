#!/usr/bin/env bash
# Builds the shipped binaries (netshare_cli, netshared) and the benchmark
# program from this checkout, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload flows-generate --seed 1 --seconds 45 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result is the JSON object on the last line of standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p netshare --bin netshare_cli -p netshared --bin netshared >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
