#!/usr/bin/env bash
# Builds the cordobad benchmark from source and runs it from the repository
# root:
#
#   bash cordobench/run.sh --workload interactive --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, temp files, job directories).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/cordobench" && go build -o "$out/cordobench" .)
exec "$out/cordobench" -workdir "$out" "$@"
