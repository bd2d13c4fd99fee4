#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build ./bench from source, then run it
# with the arguments given. Everything the build writes — Go's build cache,
# its temporary files, its telemetry counters, the binary — stays under
# .bench_build in the current directory (the root of the checkout), so a run
# reads and writes nothing outside it. The first run in a checkout compiles
# the standard library and dproc from scratch (about half a minute); later
# runs reuse the cache.
set -euo pipefail

# Without the module there is nothing to build: say so and start nothing.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no dproc source here (go.mod, internal/): run from the root of a checkout" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

# With a fresh config directory the go command's telemetry mode is "local",
# and its first run of the day forks a detached child that outlives it. Mode
# "off" stops that: go build then starts only processes it waits for.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/dproc-bench" ./bench
exec "$build/dproc-bench" "$@"
