#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload classic --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# and the traced run's spans and profiles stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
