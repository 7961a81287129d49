#!/usr/bin/env bash
# Paired end-to-end benchmark of a base revision against the working tree:
#
#   bash scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seconds=15]
#   bash scripts/bench_pairs.sh <base-rev> all [pairs=10] [seconds=15]
#   bash scripts/bench_pairs.sh --self-test
#
# Builds <base-rev> in a temporary git worktree and the working tree in
# place, each into its own target directory, then runs
# `sac-bench run --trace 0` on the two sides alternately, with seed i for
# pair i; odd pairs run base first, even pairs the change.  It ends with `sac-bench compare base... -- change...`,
# whose verdicts follow the bounds in BENCHMARK.json (`improved` needs at
# least ten pairs), and exits with compare's status.  Every run keeps its
# results under .bench_pairs/<workload>/{base,change}-<i>/.
#
# With the workload `all`, each run is `sac-bench run` without
# `--workload`: every workload of the benchmark runs in each pair, and the
# one compare table covers them all, so a single invocation checks the
# workload a change claims and the ones that must not move.  A pair then
# takes about four times as long as one `interactive_large` pair.
#
# --self-test checks the plumbing, not performance: the working tree
# against itself (one build), one pair of 2-second runs on `theta`.  It
# asserts that both sides wrote results.json and that compare printed a
# verdict for every end-to-end metric of BENCHMARK.json, whatever those
# verdicts are (self-pairs that short are noise).
#
# Run from anywhere inside the repository; nothing else CPU-heavy should
# run meanwhile.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
state="$root/.bench_pairs"

usage() {
  echo "usage: bash scripts/bench_pairs.sh <base-rev> <workload|all> [pairs=10] [seconds=15]" >&2
  echo "       bash scripts/bench_pairs.sh --self-test" >&2
  exit 2
}

# Builds sac-http and sac-bench from the checkout at $1 into target dir $2
# (the two build lines of sacbench/run.sh).
build() {
  local src=$1 target=$2
  [ -f "$src/sacbench/Cargo.toml" ] || {
    echo "bench_pairs: $src has no sacbench package" >&2
    exit 2
  }
  CARGO_TARGET_DIR="$target" cargo build --release --quiet \
    --manifest-path "$src/Cargo.toml" -p sac-live --bin sac-http
  CARGO_TARGET_DIR="$target" cargo build --release --quiet \
    --manifest-path "$src/sacbench/Cargo.toml"
}

# Runs `pairs` pairs of `seconds` each on `workload` (every workload for
# `all`), alternating which side goes first, and writes compare's table to
# $out/compare.txt; returns compare's exit status.
run_pairs() {
  local base_bin=$1 change_bin=$2 workload=$3 pairs=$4 seconds=$5 out=$6
  rm -rf "$out"
  mkdir -p "$out"
  local select=(--workload "$workload")
  [ "$workload" = all ] && select=()
  local i side bin order
  for i in $(seq 1 "$pairs"); do
    order="base change"
    [ $((i % 2)) -eq 0 ] && order="change base"
    for side in $order; do
      bin=$base_bin
      [ "$side" = change ] && bin=$change_bin
      echo "bench_pairs: pair $i/$pairs, $side" >&2
      "$bin" run "${select[@]}" --seed "$i" --seconds "$seconds" \
        --trace 0 --out "$out/$side-$i" >"$out/$side-$i.log" 2>&1 || {
        echo "bench_pairs: $side run $i failed (log: $out/$side-$i.log)" >&2
        tail -5 "$out/$side-$i.log" >&2
        return 2
      }
    done
  done
  local base_results=() change_results=()
  for i in $(seq 1 "$pairs"); do
    base_results+=("$out/base-$i/results.json")
    change_results+=("$out/change-$i/results.json")
  done
  local status=0
  "$change_bin" compare "${base_results[@]}" -- "${change_results[@]}" \
    --bench "$root/BENCHMARK.json" >"$out/compare.txt" || status=$?
  cat "$out/compare.txt"
  return "$status"
}

self_test() {
  local target="$state/target/change" out="$state/self-test"
  build "$root" "$target"
  local bin="$target/release/sac-bench" status=0
  run_pairs "$bin" "$bin" theta 1 2 "$out" || status=$?
  # compare exits 1 on a regressed verdict, which a 2-second self-pair may
  # well print; anything else is a broken run.
  [ "$status" -le 1 ] || { echo "bench_pairs self-test: compare failed ($status)" >&2; exit 1; }
  local side metric
  for side in base change; do
    [ -s "$out/$side-1/results.json" ] || {
      echo "bench_pairs self-test: $side wrote no results.json" >&2
      exit 1
    }
  done
  local metrics
  metrics=$(python3 -c 'import json, sys
print(" ".join(m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]))' \
    "$root/BENCHMARK.json")
  [ -n "$metrics" ] || { echo "bench_pairs self-test: no end-to-end metrics" >&2; exit 1; }
  for metric in $metrics; do
    grep -Eq "^theta $metric .*\| (improved|regressed|unchanged|unresolved)\$" \
      "$out/compare.txt" || {
      echo "bench_pairs self-test: no verdict for theta/$metric" >&2
      exit 1
    }
  done
  echo "bench_pairs self-test: OK"
}

[ $# -ge 1 ] || usage
if [ "$1" = "--self-test" ]; then
  [ $# -eq 1 ] || usage
  self_test
  exit 0
fi
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
base_commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")

scratch=$(mktemp -d)
worktree="$scratch/base"
cleanup() {
  git -C "$root" worktree remove --force "$worktree" 2>/dev/null || true
  rm -rf "$scratch"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$worktree" "$base_commit"

echo "bench_pairs: building base ${base_commit:0:12} and the working tree" >&2
build "$worktree" "$state/target/base"
build "$root" "$state/target/change"
run_pairs "$state/target/base/release/sac-bench" "$state/target/change/release/sac-bench" \
  "$workload" "$pairs" "$seconds" "$state/$workload"
