#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the tree it
# stands in and runs it with the arguments given. Every byte the build and
# the run write lands under .bench_build/ in the checkout (Go's build and
# module caches included), so nothing outside the checkout is touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters

# The benchmark is its own module (benchmark/go.mod replaces repro with the
# parent directory), so a checkout without the repository fails right here.
(cd "$here" && go build -o "$build/bin/quasii-benchmark" .)

cd "$root"
exec "$build/bin/quasii-benchmark" "$@"
