# Build, verification, and benchmark entry points. `make ci` is the
# gate: build, vet, tests, and the race detector over every package.

GO ?= go

.PHONY: all build fmt vet test perfbench-test race cover ci bench bench-json bench-smoke bench-interp trace-smoke service-smoke chaos-smoke cluster-smoke telemetry-smoke partition-smoke slo-smoke bench-partition bench-slo report

all: ci

build:
	$(GO) build ./...

# Formatting gate: fails when gofmt would rewrite any file.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness (perfbench/) is its own module, so the root
# `go test ./...` never reaches its generator, gate and ledger tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The determinism tests run every experiment twice; under the race
# detector on a small host that exceeds go test's default 10m timeout.
race:
	$(GO) test -race -timeout 45m ./...

ci: build fmt vet test perfbench-test race bench-smoke bench-interp trace-smoke service-smoke chaos-smoke cluster-smoke telemetry-smoke partition-smoke slo-smoke

# Coverage gate: per-package statement coverage printed and compared
# against the checked-in floor; fails on regression. After genuinely
# improving coverage, raise the floor with:
#   go run ./scripts/covercheck -update
cover:
	$(GO) run ./scripts/covercheck

# End-to-end exporter check: run a small S/MIMD job with -trace-out and
# validate the emitted Chrome trace against the exporter's schema.
trace-smoke:
	$(GO) run ./cmd/pasmrun -n 8 -p 2 -mode smimd -trace-out pasmrun.trace.json >/dev/null
	$(GO) run ./scripts/tracecheck pasmrun.trace.json
	rm -f pasmrun.trace.json

# End-to-end serving check: build pasmd + pasmbench, start a daemon,
# and assert byte-identity (cold miss, cache hit, -remote), 503 on a
# full queue, and a graceful drain that loses no accepted job.
service-smoke:
	$(GO) run ./scripts/servicesmoke

# Resilience check: run pasmd under a fixed fault-injection profile
# (errors, delays, panics at every point) and assert no accepted job is
# lost, all results stay byte-identical to fault-free runs, and the
# injected faults + client retries are visible in /metrics.
chaos-smoke:
	$(GO) run ./scripts/chaossmoke

# Cluster fault-tolerance check: three pasmd replicas behind pasmgw;
# SIGKILL one mid-run, assert failover, breaker open/close, peer cache
# fill, byte-identical results throughout, and a lossless drain.
cluster-smoke:
	$(GO) run ./scripts/clustersmoke

# Partitioned-machine check: pasmd with -machine-pes 64 packs
# concurrent jobs onto subcube partitions; a co-resident pes=32 job is
# byte-identical to a standalone 32-PE machine, the loadgen -pes-mix
# storm completes clean, oversize specs get 400, and a drain places
# every job still waiting for a partition.
partition-smoke:
	$(GO) run ./scripts/partitionsmoke

# End-to-end observability check: three traced replicas behind a
# traced gateway; one trace ID spans gateway -> replica -> worker with
# every serving stage, the merged host+sim Perfetto export validates,
# cluster-level stage quantiles appear in /metrics, and the detached
# telemetry path is zero allocations.
telemetry-smoke:
	$(GO) run ./scripts/telemetrysmoke

# SLO-aware serving check: pasmd with -sched sjf and SLO classes,
# replay the committed golden workload trace open-loop, and assert a
# lossless drain, per-class latency quantiles + SLO verdicts +
# fairness index in /metrics, and the per-client 429 admission path.
slo-smoke:
	$(GO) run ./scripts/slosmoke

# SLO scheduling benchmark: deterministic virtual-time replay of the
# golden trace under FCFS vs priority-SJF — short-class p99 must
# improve, replays must be byte-identical, and executing a trace
# prefix under both modes must give identical report bytes
# (writes BENCH_slo.json).
bench-slo:
	$(GO) run ./scripts/slobench -out BENCH_slo.json

# Quick wall-clock + simulated-cycle baseline (writes BENCH_baseline.json).
bench-json:
	scripts/bench.sh

# Partitioned co-scheduling benchmark: the ext-partition sweep on a
# 64-PE machine — a mixed-size job storm packed first-fit vs the serial
# whole-machine baseline (writes BENCH_partition.json).
bench-partition:
	scripts/bench.sh partition

# Go benchmarks (simulated metrics + interpreter allocation check).
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Allocation gate for the superinstruction tier: a short benchmark run
# plus the AllocsPerRun test asserting the hot path is 0 allocs/op in
# steady state.
bench-smoke:
	$(GO) test -run TestSuperPathZeroAllocs -count=1 \
		-bench 'BenchmarkInterpreterSuper' -benchtime 100x -benchmem \
		./internal/m68k/

# Interpreter-tier regression gate: remeasure the BENCH_interp.json
# rows and fail if the super tier's speedup over the reference tier
# fell below the recorded ratios (a noise margin absorbs host jitter).
bench-interp:
	$(GO) run ./cmd/interpbench -reps 2 -against BENCH_interp.json

report:
	$(GO) run ./cmd/pasmreport -o report.md
