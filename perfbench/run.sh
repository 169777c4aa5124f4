#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's own sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every scratch file stay under
# .bench_build (or $CARGO_TARGET_DIR) inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
export PERFBENCH_BUILD=$build
exec "$build/perfbench" "$@"
