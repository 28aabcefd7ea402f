#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root: bash benchmark/run.sh --workload bulk-load --seed 1 --seconds 30 --trace 0
# Every build artefact, cache and output file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters and env file under the user
# config directory; point that into the build directory as well.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
if ! go build -C "$root/benchmark" -o "$out/xdgpbench" . >&2; then
	echo "benchmark: build failed" >&2
	exit 2
fi
exec "$out/xdgpbench" -out "$out" "$@"
