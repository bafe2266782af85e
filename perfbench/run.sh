#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it
# with the given arguments.  Run from the repository root:
#
#	bash perfbench/run.sh --workload tcp-closed --seed 1 --seconds 10 --trace 0
#
# The build cache and every file the run writes stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
