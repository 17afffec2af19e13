#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache and temp files go there too, so nothing is
# written outside the checkout) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/qensbench" .
exec "$build/qensbench" "$@"
