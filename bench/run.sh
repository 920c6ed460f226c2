#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go build cache) stays in
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. The module in this directory has no dependency but the
# repository around it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$root"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
