#!/usr/bin/env bash
# The acceptance driver's entry point (BENCHMARK.json "command"): build
# the benchmark from the checkout's source, then run it with the driver's
# arguments. Everything the Go toolchain writes — build cache, temporary
# files, the binary — stays under .bench_build/ in the checkout. In a
# directory without the repository's go.mod and internal/ packages the
# build fails and so does this script: the benchmark measures the
# program, not itself.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
