#!/usr/bin/env bash
# Builds the benchmark and fabp-serve from source under .bench_build, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload db_scan --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build: the Go
# build cache, the binaries, generated inputs, span and report files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
	go build -o "$build/fabp-serve" fabp/cmd/fabp-serve
)
exec "$build/perfbench" -serve-bin "$build/fabp-serve" -work "$build/work" "$@"
