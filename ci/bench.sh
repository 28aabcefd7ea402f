#!/usr/bin/env bash
# Runs the migration-sweep benchmark set that CI gates on, in a fixed
# configuration so results are comparable with ci/bench-baseline.txt.
#
# Regenerate the committed baseline (after an intentional perf change, a
# benchmark rename, or reference-hardware drift) with:
#
#   ./ci/bench.sh > ci/bench-baseline.txt
#
# ideally on the same runner class CI uses. The gate threshold (15%) is
# deliberately loose to absorb runner-to-runner noise; benchstat output in
# the CI artifact gives the statistically annotated picture.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-0.5s}
COUNT=${COUNT:-4}

# Per-iteration sweep cost, sequential vs sharded, plus the edge-balanced
# extension (internal/core).
go test -run='^$' -bench 'BenchmarkStepPowerLaw|BenchmarkStepEdgeBalanced' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/core
# Converged-graph churn absorption: the active-set scheduler's headline,
# at both 10k and 100k vertices (the pattern is unanchored, so n=10000
# matches n=100000 too — deliberately: the 100k acceptance number gates
# PRs as well; the nightly workflow re-runs it with more repetitions).
go test -run='^$' -bench 'BenchmarkStepConvergedChurn/n=10000' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/core
# Repository-level micro-benchmarks of the heuristic iteration.
go test -run='^$' -bench 'BenchmarkCoreIteration' \
  -benchtime="$BENCHTIME" -count="$COUNT" .
# Serving plane: routing-snapshot placement reads and the batch lookup
# while adaptation is actively migrating. Tracked in the baseline for the
# benchstat report but NOT gated by cmd/benchgate: contention benchmarks
# are too runner-sensitive for a hard ratio gate.
go test -run='^$' -bench 'BenchmarkPlacementUnderAdaptation|BenchmarkBatchLookupUnderAdaptation' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/server
# Read-path heat guard: what workload-heat sampling adds to a single
# placement lookup, recording off vs on. Uncontended and steady, so this
# pair IS gated — the heat table must not slow the serving plane.
go test -run='^$' -bench 'BenchmarkPlacementHeat' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/server
# Streaming analytics: absorbing one churn batch (100 edge rewires on a
# converged BA-10k instance) with the self-repairing connected-components
# program — the incremental re-flood path's per-batch cost. Gated.
go test -run='^$' -bench 'BenchmarkStreamingCCChurn' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/apps
# The same churn batch absorbed by streaming PageRank, which has no
# combiner: every announcement crosses the BSP message plane on its own.
# Reported with allocations for the benchstat view; not gated.
go test -run='^$' -bench 'BenchmarkStreamingPageRankChurn' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/apps
# Tick-path housekeeping (internal/graph, internal/activeset): one
# quiet-point arena compaction of a growing Barabási–Albert graph, and
# one frontier drain preparation (a sorted kept prefix plus random
# wakes). Reported with allocations for the benchstat view; not gated.
go test -run='^$' -bench 'BenchmarkCompactGrowth' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/graph
go test -run='^$' -bench 'BenchmarkPrepareFrontier' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/activeset
# Per-epoch table copies (internal/partition): the primary's Freeze and a
# replica's Frozen.Apply of one epoch diff, sized like steady-churn (300k
# slots, k=9, 170 changes). Reported with allocations; not gated.
go test -run='^$' -bench 'BenchmarkFreeze|BenchmarkFrozenApply' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/partition
# Replication plane (internal/server, internal/replica): encoding one
# 2k-change watch line, and decoding one 2k-change watch line and one
# 100k-placement bootstrap page on the canonical fast path. Reported
# with allocations for the benchstat view; not gated.
go test -run='^$' -bench 'BenchmarkWatchEncode' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/server
go test -run='^$' -bench 'BenchmarkWatchDecode|BenchmarkPageDecode' -benchmem \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/replica
