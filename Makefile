# Development and CI entry points. `make ci` is the full gate:
# build + lint + tests (including the quick-suite golden) + race
# detector + coverage floor + fuzz smoke + experiment smoke run.

GO ?= go

.PHONY: all build test golden mem-guard race race-obs race-fault race-scenario scenario-lint cover cover-check fuzz-smoke vet lint bench-quick bench-obs bench-smoke bench-vet bench-test bench-compare smoke loc ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race target doubles as the shared-trace immutability proof:
# TestSharedTraceConcurrentRuns and the runner pool tests replay shared
# traces from many goroutines under the race detector. internal/experiments
# dominates: its one quick-suite golden generation plus the scenario
# tests take ~3 min under -race on a 2-vCPU host (184 s measured alone;
# packages run side by side under `./...`, so expect more). The raised
# 25 m timeout is kept as headroom for slower or busier hosts.
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
COVER_FLOOR ?= 88
cover-check:
	@$(GO) test -coverprofile=cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "coverage: $${total}% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' \
	  || { echo "coverage $${total}% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Fuzz smoke: five seconds of coverage-guided fuzzing on each of six
# targets (the hardened binary-trace decoder, the SID predictor, the
# timing-wheel-vs-reference-heap scheduler equivalence, the scenario and
# fault-plan JSON codec round-trips, and the translation cache against
# its linear-scan reference model). The committed seed corpora under
# testdata/fuzz/ also replay in every ordinary `go test` run.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadBinary -fuzztime 5s
	$(GO) test ./internal/device -run '^$$' -fuzz FuzzPredictor -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineMatchesHeapRef -fuzztime 5s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzScenarioCodec -fuzztime 5s
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzFaultPlanCodec -fuzztime 5s
	$(GO) test ./internal/tlb -run '^$$' -fuzz FuzzCacheMatchesRef -fuzztime 5s

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
golden:
	$(GO) test -run TestQuickSuiteGolden -count=1 ./internal/experiments

# Streaming-memory gate: the 10^5-tenant streaming HyperTRIO cell must
# finish within its committed live-heap budget — the pin that keeps
# streaming-run memory O(tenants) instead of O(packets). -v prints the
# measured live bytes per tenant.
mem-guard:
	$(GO) test -v -run TestMegaTenantHeapBudget -count=1 ./internal/experiments

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

# The bench module (bench/, hyperbench) is a separate Go module that
# `go build ./...` from the root does not reach; vetting it compiles it
# against the current internal packages it imports.
bench-vet:
	cd bench && GOWORK=off $(GO) vet ./...

# hyperbench's own unit tests (structure extraction, trace decoder,
# compare) plus its smoke run of every workload at reduced size (~5 s).
bench-test:
	cd bench && GOWORK=off $(GO) test ./...

# Performance gate: hyperbench (bench/run.sh) runs every workload of
# BENCHMARK.json three times for 5 s at seed 42, checking each replay's
# Result against the committed digest, into a fresh results set under
# .bench_build/, then compares that set with the committed baseline
# BENCH_BASELINE.json. The bounds are BENCHMARK.json's end-to-end ones
# plus the failed-ratio rule, and -compare exits non-zero on a
# regression. Host drift is handled by hyperbench's calibration loop,
# which scales every host time to a reference host. After a deliberate
# performance or model change, copy the set over BENCH_BASELINE.json.
bench-compare:
	@mkdir -p .bench_build && rm -f .bench_build/bench-compare.json
	@for run in 1 2 3; do \
	  for w in ht-1k base-1k ht-16-hits ht-storm ht-mega-stream; do \
	    bash bench/run.sh --workload $$w --seed 42 --seconds 5 --trace 0 \
	      -out .bench_build/bench-compare.json || exit 1; \
	  done; \
	done
	bash bench/run.sh -compare BENCH_BASELINE.json .bench_build/bench-compare.json

# CI smoke run: the reduced-scale experiment suite end to end.
smoke:
	$(GO) run ./cmd/experiments -quick -out results-smoke

# Non-test Go line counts: outside the bench module (the size figure
# CHANGES.md records before and after each change), then the bench
# module itself.
loc:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' -exec cat {} + | wc -l
	@printf 'non-test Go lines in bench/:      '; find ./bench -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l

ci: build lint test golden mem-guard race race-obs race-fault race-scenario scenario-lint cover-check fuzz-smoke bench-smoke bench-vet bench-test bench-compare smoke

clean:
	rm -rf results-smoke cover.out
