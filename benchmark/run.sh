#!/bin/sh
# run.sh — build and run the benchmark from a checkout of the repository.
# Everything the build and the run write (Go build cache, binaries, models,
# CSVs, WALs) goes under .bench_build/ and benchmark/out/ in the checkout;
# nothing is written to $HOME or /tmp.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
    GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME

# The harness is a module of its own (benchmark/go.mod) that replaces
# module repro with the checkout around it.
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
