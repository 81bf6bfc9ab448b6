#!/usr/bin/env bash
# Builds wfbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash wfbench/run.sh --workload hot-cache --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the current directory. The build is offline: the
# benchmark needs only the standard library and the repository itself.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
go -C wfbench build -o "$out/wfbench" .
exec "$out/wfbench" --workdir "$out" "$@"
