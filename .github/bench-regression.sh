#!/usr/bin/env bash
# bench-regression.sh — base-vs-head benchmark gate for CI.
#
# Runs the serving-layer benchmark set on the merge base (built from a
# detached git worktree, so the working tree is untouched) and on the
# current checkout, then hands both outputs to cmd/benchdiff: ns/op is
# compared with a Welch t-test across the repetitions, allocs/op is
# compared exactly (any increase fails — the CI twin of the in-repo
# allocation pins in internal/serve/alloc_test.go).
#
# Usage: .github/bench-regression.sh [base-ref]
#   base-ref defaults to origin/main (or GITHUB_BASE_REF when set).
# Environment knobs:
#   BENCH_PATTERN  benchmark regexp  (default: the serve hot-path set,
#                  the per-policy RecommendObserveSeqPolicies cycle, the
#                  full-ledger RecommendObserveFullLedger cycle, the
#                  schema's validate + encode, SchemaEncode, and the
#                  fleet router's recommend+observe hop, RouterHop)
#   BENCH_COUNT    repetitions       (default 6)
#   BENCH_TIME     -benchtime value  (default 20000x — fixed iteration
#                  counts keep run lengths comparable across builds)
#   BENCH_PKGS     packages to bench (default: the root package, which
#                  holds BenchmarkRecommendCtx/BenchmarkObserveOutcome/
#                  BenchmarkSchemaEncode,
#                  plus ./internal/serve/ with the contention set and
#                  ./internal/dist/ with BenchmarkRouterHop)
set -euo pipefail

base_ref=${1:-${GITHUB_BASE_REF:+origin/$GITHUB_BASE_REF}}
base_ref=${base_ref:-origin/main}
pattern=${BENCH_PATTERN:-'ParallelRecommendObserve|RecommendCtx$|ObserveOutcome$|RecommendObserveSeqPolicies|RecommendObserveFullLedger|SchemaEncode$|RouterHop$'}
count=${BENCH_COUNT:-6}
benchtime=${BENCH_TIME:-20000x}
pkgs=${BENCH_PKGS:-'./ ./internal/serve/ ./internal/dist/'}

merge_base=$(git merge-base HEAD "$base_ref")
echo "benchdiff: comparing HEAD against merge base $merge_base ($base_ref)" >&2

workdir=$(mktemp -d)
trap 'git worktree remove --force "$workdir/base" 2>/dev/null || true; rm -rf "$workdir"' EXIT
git worktree add --detach "$workdir/base" "$merge_base" >/dev/null

# The replication step, BenchmarkCaptureApplyDelta (one capture, encode
# and apply over 64 streams per policy, about 3 ms an iteration), runs
# in the same file at 200 iterations: 20000 would take a minute per run.
run_bench() { # run_bench <dir> <out-file>
  (cd "$1" && go test -run='^$' -bench="$pattern" -benchmem \
      -count="$count" -benchtime="$benchtime" $pkgs &&
    go test -run='^$' -bench='CaptureApplyDelta$' -benchmem \
      -count="$count" -benchtime=200x ./internal/serve/) | tee "$2"
}

echo "benchdiff: benchmarking base..." >&2
run_bench "$workdir/base" "$workdir/bench-base.txt" >/dev/null
echo "benchdiff: benchmarking head..." >&2
run_bench "$PWD" "$workdir/bench-head.txt" >/dev/null

go run ./cmd/benchdiff "$workdir/bench-base.txt" "$workdir/bench-head.txt"
