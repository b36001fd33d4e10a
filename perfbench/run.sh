#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
