#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds bench/e2e and runs it with
# everything the Go toolchain writes (build cache, temporary files, its
# telemetry counters and env file) kept under .bench_build/ in the
# checkout, because the benchmark's contract is to read and write nowhere
# else. `go run ./bench/e2e` is the same benchmark with your own caches.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
build="$root/.bench_build"
# Without the module it measures there is nothing to build: say so and
# fail before any process is started.
if [[ ! -f go.mod || ! -d cmd/ptserved ]]; then
  echo "bench/e2e: no go.mod and cmd/ptserved in $root: this is not a checkout of the program" >&2
  exit 1
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
# In a fresh config dir the go command forks a detached telemetry child
# that outlives it; the benchmark must leave no process behind, so
# telemetry is switched off in the config dir the toolchain is given.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/e2e" ./bench/e2e
exec "$build/e2e" "$@"
