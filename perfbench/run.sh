#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory, which must
# be the root of a checkout, and runs it with the arguments given:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the span dumps stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -trimpath -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
