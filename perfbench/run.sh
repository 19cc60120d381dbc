#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload initiate --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the traced run's span file go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --trace-out "$out/perfbench-spans.json"
