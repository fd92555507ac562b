#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument passes through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload write-saturate --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, cluster data and traces all stay under
# .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --commit "$rev" "$@"
