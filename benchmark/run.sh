#!/bin/bash
# Builds forcemark and runs it from the root of the checkout.  Everything
# the build and the run write — the Go build cache, the binary, the aot
# tier's cache — stays under .bench_build in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/forcemark" .)
cd "$root"
exec "$build/forcemark" "$@"
