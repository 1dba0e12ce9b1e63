#!/bin/sh
# Builds the benchmark from this checkout's source and runs it from the
# checkout root, which is where BENCHMARK.json's command is invoked. Nothing
# is written outside the checkout: the Go build cache, the module path, the
# compiler's temporary files and the binaries all live under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
