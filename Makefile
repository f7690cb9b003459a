# Build, verification, and benchmark entry points. `make ci` is the
# gate: build, vet, tests, and the race detector over every package.

GO ?= go

.PHONY: all build fmt vet test perfbench-test race cover ci bench bench-json bench-smoke bench-interp e2e bench-partition bench-slo report report-check

all: ci

build:
	$(GO) build ./...

# Formatting gate: fails when gofmt would rewrite any file.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The e2e tag adds the end-to-end harness (scripts/e2e) to the vetted set.
vet:
	$(GO) vet -tags e2e ./...

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

ci: build fmt vet test report-check perfbench-test race bench-smoke bench-interp e2e

# Coverage gate: per-package statement coverage printed and compared
# against the checked-in floor; fails on regression. After genuinely
# improving coverage, raise the floor with:
#   go run ./scripts/covercheck -update
cover:
	$(GO) run ./scripts/covercheck

# End-to-end harness (scripts/e2e): builds pasmd, pasmgw, pasmbench,
# pasmrun and loadgen once, then runs every scenario against the real
# processes: serving, chaos, cluster failover, partitions, SLO
# scheduling, request telemetry and trace export. Run one scenario with
#   go test -tags e2e -run TestCluster ./scripts/e2e
e2e:
	$(GO) test -tags e2e -count=1 -timeout 10m ./scripts/e2e

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

# Reproduction gate: regenerate the full-size report and diff it
# against the checked-in REPORT.md. Only the "generated <time>" prefix
# of the header line is masked; the rest of that line (the problem
# sizes) is compared like every other line.
report-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/pasmreport -full -o "$$tmp/report.md" && \
	sed -E 's/^generated [^;]*;/generated <time>;/' REPORT.md > "$$tmp/want" && \
	sed -E 's/^generated [^;]*;/generated <time>;/' "$$tmp/report.md" > "$$tmp/got" && \
	diff -u "$$tmp/want" "$$tmp/got" && echo 'report-check: REPORT.md reproduces'
