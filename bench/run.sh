#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; the
# arguments go to the program unchanged. Everything the build writes
# (Go's build cache included) stays under .bench_build in the checkout,
# and the build never reaches for the network.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
