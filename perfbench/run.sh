#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload scifi-pool --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL stores, traces, results history) stays under
# .bench_build/ in the checkout. The build needs the repository's go.mod one
# directory up; without it the script fails before measuring anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
