#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the
# benchmark from source into .bench_build/ at the checkout root, then run it
# with the driver's arguments. The Go build cache, temp dir and config dir
# (toolchain telemetry counters) are kept inside the checkout so nothing is
# written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C bench -o "$build/prany-bench" .
exec "$build/prany-bench" "$@"
