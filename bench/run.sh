#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source,
# keeping everything the go command writes (build cache, module cache,
# its telemetry counters) and the binary inside the checkout, and runs
# it with the arguments given. Start it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/ceresbench" .
exec "$build/ceresbench" "$@"
