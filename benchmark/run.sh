#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# sits in (Go's build cache too, so nothing is written outside the
# checkout) and runs it from the checkout root with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/smartsbench" .
cd "$root"
exec "$build/smartsbench" "$@"
