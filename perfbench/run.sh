#!/usr/bin/env bash
# Builds the benchmark program and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload validate-cold --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays below the output directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, the binaries, scratch stores.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -out "$out" "$@"
