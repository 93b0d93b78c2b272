#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Every file the build
# writes (Go build cache, temporary files, the binary) stays inside the
# checkout; the network is never consulted.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
# the go command keeps its own counters under the user's config directory
XDG_CONFIG_HOME="$build/config" go build -C benchmark -o "$build/sonic-benchmark" .
exec "$build/sonic-benchmark" "$@"
