#!/usr/bin/env bash
# Builds sac-http (the program under test, from the repository root) and
# sac-bench (this package) into one release target directory, then runs
# sac-bench with the given arguments, e.g.
#
#   bash sacbench/run.sh run --seed 1
#   bash sacbench/run.sh run --workload theta --seed 3 --seconds 12 --trace 0
#   bash sacbench/run.sh compare a/results.json -- b/results.json
#
# The target directory is $CARGO_TARGET_DIR, or .bench_build at the root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p sac-live --bin sac-http
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/sac-bench" "$@"
