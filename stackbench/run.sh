#!/usr/bin/env bash
# Builds the stack benchmark from this checkout and runs it. Run from the
# repository root, for example:
#
#   bash stackbench/run.sh --workload engine-deep --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/stackbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/stackbench" && go build -o "$out/stackbench" .)
exec "$out/stackbench" "$@"
