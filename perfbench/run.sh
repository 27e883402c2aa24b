#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload pools68-jupiter --seed 2014 --seconds 32 --trace 0
#
# Every build product, the Go build cache and the run artifacts stay
# inside the checkout (.bench_build and .bench_out), and the toolchain is
# kept offline and local.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
