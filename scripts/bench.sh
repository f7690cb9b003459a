#!/bin/sh
# Record a host-performance baseline: runs the full quick experiment
# suite (paper tables/figures plus extensions) through the parallel
# cell fan-out and writes wall-clock plus simulated-cycle results to
# BENCH_baseline.json.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh interp [output.json] [recorded-to-compare.json]
#        scripts/bench.sh partition [output.json] [machine-pes]
#
# The `interp` mode measures per-row simulation-only MIPS for each
# interpreter tier (reference / superinstructions) via
# cmd/interpbench and writes BENCH_interp.json; with a third
# argument it additionally fails if the super tier's speedup ratios
# regressed below that recorded document (the `make bench-interp` CI
# gate).
#
# The `partition` mode runs the ext-partition co-scheduling sweep on a
# 64-PE machine (override with a third argument) and writes
# BENCH_partition.json: makespan, speedup, utilization, and peak
# fragmentation of a mixed-size job storm packed first-fit against the
# serial whole-machine baseline.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "interp" ]; then
    out="${2:-BENCH_interp.json}"
    against="${3:-}"
    go build ./...
    if [ -n "$against" ]; then
        go run ./cmd/interpbench -out "$out" -against "$against"
    else
        go run ./cmd/interpbench -out "$out"
    fi
    exit 0
fi

if [ "${1:-}" = "partition" ]; then
    out="${2:-BENCH_partition.json}"
    pes="${3:-64}"
    go build ./...
    go run ./cmd/pasmbench -exp ext-partition -pes "$pes" -json "$out" >/dev/null
    echo "partition benchmark written to $out:"
    grep -E '"(policy/[a-z]+/(makespan|speedup|utilization_pct)|serial/makespan|machine/pes)"' "$out" |
        sed 's/^ *//' | sort
    exit 0
fi

out="${1:-BENCH_baseline.json}"

go build ./...
go run ./cmd/pasmbench -exp all,ext -json "$out" >/dev/null
echo "baseline written to $out:"
grep -E '"(name|host_seconds)"' "$out" | sed 's/^ *//' | head -40
