#!/usr/bin/env bash
# Tier-1 smoke of the analytics on the BSP engine. It runs the "apps"
# experiment in miniature — all three streaming programs (connected
# components, SSSP, PageRank) over a churning BA graph, adaptive vs
# static partitioning. Every cell is oracle-checked inside the driver
# (drained and diffed against a from-scratch recompute), so a green run
# certifies correct answers under churn with migrations in flight, not
# just that the binary ran. The nightly analytics-churn job repeats this
# at 100k-vertex scale. It then runs the paper's three system
# experiments in miniature (fig7 Cardiac, fig8 TunkRank, fig9
# MaxClique), one run per figure, so every program type of the message
# plane runs end to end in tier-1, not only nightly.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go run ./cmd/experiments -run apps -quick
go run ./cmd/experiments -run apps -quick -incremental
for fig in fig7 fig8 fig9; do
	go run ./cmd/experiments -run "$fig" -quick
done
