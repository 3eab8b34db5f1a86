#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build artifact, cache and scratch file stays under .bench_build/ in
# the checkout, so a run writes nothing outside it.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace]
#   bash bench/run.sh compare PARENT.json... CHANGE.json...
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
