#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash perfbench/run.sh --workload catalog-churn --seed 3 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and traced spans stay under the
# build directory (CARGO_TARGET_DIR if set, else .bench_build), so the
# run writes nothing outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
