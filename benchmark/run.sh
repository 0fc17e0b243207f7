#!/bin/sh
# Builds the benchmark harness from the sources of the checkout it is run in
# and executes it with the given arguments. Run it from the repository root:
#
#   sh benchmark/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) stays under .bench_build, so the run touches nothing
# outside the checkout and needs no network.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$out/bench" .
exec "$out/bench" "$@"
