#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Every build and scratch file stays under .bench_build/ in the current
# directory: the Go build cache, the toolchain's temp files and config, and
# the benchmark's own journals and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
# paper_figures times this binary's start-up as its set-up.
go -C "$root" build -o "$out/figures" ./cmd/figures
exec "$out/perfbench" --out "$out" "$@"
