#!/usr/bin/env bash
# Builds the benchmark driver inside the checkout and runs it, passing the
# arguments through. Everything the build and the run write (Go build
# cache, temporary files, spill files, the permd binary) stays under
# .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off
go -C "$root/bench" build -o "$build/permbench" .
cd "$root"
exec "$build/permbench" "$@"
