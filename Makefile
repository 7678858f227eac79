# Development and CI entry points. `make ci` is the full gate:
# build + lint + tests (including the quick-suite golden) + race
# detector + coverage floor + fuzz smoke + experiment smoke run.

GO ?= go

.PHONY: all build test golden mem-guard race race-obs race-fault race-scenario scenario-lint cover cover-check fuzz-smoke vet lint bench-quick bench-obs bench-smoke bench-json bench-mem bench-compare smoke loc ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race target doubles as the shared-trace immutability proof:
# TestSharedTraceConcurrentRuns and the runner pool tests replay shared
# traces from many goroutines under the race detector. The raised
# timeout covers internal/experiments: its two quick-suite golden
# generations plus the scenario tests take ~11 min under -race on a
# 2-vCPU host — past Go's default 10 m package budget without any test
# hanging. 25 m leaves over 2x headroom.
race:
	$(GO) test -race -timeout 25m ./...

# Observability-focused race pass: the obs package and engine-probe
# tests (including the schema-stability goldens) plus the worker-pool
# concurrent-sampling test, which shares one *obs.Options across all
# pool goroutines.
race-obs:
	$(GO) test -race ./internal/obs ./internal/sim
	$(GO) test -race -run TestPoolConcurrentSampling ./internal/runner

# Fault-injection race pass: the injector package under -race, plus the
# pinned fault-enabled determinism and churn tests at core level (one
# shared read-only plan across systems is part of the contract).
race-fault:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'TestFaultRunDeterministic|TestTenantChurnFlushesState' ./internal/core

# Per-package coverage run; prints the repo total and leaves cover.out
# for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Coverage gate: the repo-wide statement coverage must not fall below
# the floor measured when the gate was added. Raise the floor as
# coverage grows; never lower it to make a change pass.
COVER_FLOOR ?= 83
cover-check:
	@$(GO) test -coverprofile=cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "coverage: $${total}% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' \
	  || { echo "coverage $${total}% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Fuzz smoke: five seconds of coverage-guided fuzzing on each target
# (the hardened binary-trace decoder, the SID predictor, the
# timing-wheel-vs-reference-heap scheduler equivalence, and the
# scenario and fault-plan JSON codec round-trips). The committed
# seed corpora under testdata/fuzz/ also replay in every ordinary
# `go test` run.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadBinary -fuzztime 5s
	$(GO) test ./internal/device -run '^$$' -fuzz FuzzPredictor -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineMatchesHeapRef -fuzztime 5s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzScenarioCodec -fuzztime 5s
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzFaultPlanCodec -fuzztime 5s

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck when the module proxy is
# reachable (it is go-run on demand, not vendored), otherwise skipped
# with a notice so offline runs still pass.
lint: vet
	@$(GO) run honnef.co/go/tools/cmd/staticcheck@2023.1.7 ./... \
		|| echo "lint: staticcheck unavailable (offline?); go vet passed, skipping"

# Byte-identity gate: the quick experiment suite must reproduce the
# committed sha256 manifest exactly (internal/experiments/testdata).
# The pattern also matches TestQuickSuiteGoldenStreaming, so one target
# pins materialized and streaming runs to the same manifest.
golden:
	$(GO) test -run TestQuickSuiteGolden -count=1 ./internal/experiments

# Streaming-memory gate: the 10^5-tenant streaming HyperTRIO cell must
# finish within its committed live-heap budget — the pin that keeps
# streaming-run memory O(tenants) instead of O(packets).
mem-guard:
	$(GO) test -run TestMegaTenantHeapBudget -count=1 ./internal/experiments

# Scenario race pass: the scenario DSL package under -race, plus the
# scenario signal/conservation tests and the differential determinism
# check (materialized vs streaming) at experiments level — the
# adversarial suite's full contract under the race detector.
race-scenario:
	$(GO) test -race ./internal/scenario
	$(GO) test -race -run 'Scenario|Signal' -count=1 ./internal/experiments

# Committed-scenario gate: every file under scenarios/ must decode
# strictly, compile, and be byte-identical to its canonical encoding.
scenario-lint:
	$(GO) run ./cmd/scenariolint -check scenarios/*.json

# One iteration of the serial-vs-parallel suite comparison.
bench-quick:
	$(GO) test -bench 'BenchmarkSuiteQuick$$' -benchtime 1x -run '^$$' .

# One iteration of the observability-overhead comparison: the quick
# suite with the layer off versus with per-cell time-series sampling.
bench-obs:
	$(GO) test -bench 'BenchmarkSuiteQuickObs' -benchtime 1x -run '^$$' .

# One iteration of every benchmark: catches harness rot (a benchmark
# that panics or no longer compiles) without paying measurement time.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Machine-readable performance snapshot (ns/op, allocs/op, pkts/s and
# the quick-suite wall time) written to BENCH_PR9.json. Pass
# BENCH_BASELINE=<file> to embed deltas against a previous snapshot.
bench-json:
	$(GO) run ./cmd/benchjson $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# Regression gate: re-measure the hot-path benchmarks at a short
# benchtime and diff them against the committed snapshot. The threshold
# is deliberately generous — a 100ms benchtime trades precision for
# speed, so this gate catches structural rot (an optimization wired out,
# an alloc-free path regressing to allocation), not single-digit drift.
BENCH_SNAPSHOT ?= BENCH_PR9.json
BENCH_THRESHOLD ?= 0.5
bench-compare:
	$(GO) run ./cmd/benchjson -skip-suite -benchtime 100ms -o bench-compare.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_SNAPSHOT) bench-compare.json

# Memory-footprint snapshot (schema hypertrio-bench/2): streaming vs
# materialized bytes/tenant and peak heap for the 10^5-tenant cell,
# written to BENCH_MEM.json. Pass BENCH_BASELINE=<file> to embed ratios
# against a previous snapshot (v1 baselines load; their memory delta is
# simply omitted).
bench-mem:
	$(GO) run ./cmd/benchjson -skip-bench -skip-suite -mem -o BENCH_MEM.json $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# CI smoke run: the reduced-scale experiment suite end to end.
smoke:
	$(GO) run ./cmd/experiments -quick -out results-smoke

# Non-test Go line count outside the bench module: the size figure
# CHANGES.md records before and after each change.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs wc -l

ci: build lint test golden mem-guard race race-obs race-fault race-scenario scenario-lint cover-check fuzz-smoke bench-smoke bench-compare smoke

clean:
	rm -rf results-smoke cover.out bench-compare.json
