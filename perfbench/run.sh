#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload batch-short --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product and scratch file
# stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --scratch "$build" "$@"
