#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g. `sh bench/run.sh -workload setup-paper`.
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay in .bench_build/ under the working directory, and no
# module is downloaded.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
