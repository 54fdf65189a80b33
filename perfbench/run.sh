#!/usr/bin/env bash
# Builds the release `claire-cli` and the benchmark runner from the
# checkout this script sits in, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the runner's last stdout line is the
# JSON result. Build artifacts and run records land in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p claire-cli 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/claire-perfbench" --cli "$CARGO_TARGET_DIR/release/claire-cli" "$@"
