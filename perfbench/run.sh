#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the given flags:
#
#   bash perfbench/run.sh --workload sim-lockstep --seed 1 --seconds 12 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/, so
# the first run compiles the standard library (minutes) and later runs
# only relink.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
