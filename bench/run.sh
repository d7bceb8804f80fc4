#!/bin/bash
# Builds the benchmark into .bench_build/ at the root of the checkout (ignored
# by git; the Go build cache lives there too, so nothing is written outside
# the checkout) and runs it from the root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
cd "$root/bench"
# Stamp the commit when git can report one; a checkout without usable VCS
# metadata still builds.
go build -o "$root/.bench_build/bench" . 2>/dev/null || go build -buildvcs=false -o "$root/.bench_build/bench" .
cd "$root"
exec .bench_build/bench "$@"
