#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flight-dos --seed 1 --seconds 50 --trace 0
#
# Run from the root of a checkout. Every build artifact (Go build
# cache, module cache, binary) stays under .bench_build/ in the
# checkout. Outside a checkout that holds the containerdrone sources
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry and env files
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
