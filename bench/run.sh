#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside the
# checkout) and runs it with the given arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# GOWORK=off: the root go.work does not list this module, by design. The
# cache, the toolchain's scratch space, GOPATH and its telemetry counters
# all stay under .bench_build/.
GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
