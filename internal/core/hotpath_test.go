package core

import (
	"testing"

	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// TestOracleFlattenLazy pins the laziness of the oracle preprocessing:
// flattening the trace into the Belady future sequence is O(packets) work
// that only the Oracle DevTLB policy consumes, so building and running
// any non-Oracle configuration must never invoke it.
func TestOracleFlattenLazy(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.02)
	for _, cfg := range []Config{BaseConfig(), HyperTRIOConfig()} {
		before := oracleFlattens.Load()
		s, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := oracleFlattens.Load(); got != before {
			t.Fatalf("non-Oracle config flattened the trace %d times; oracle preprocessing must stay lazy", got-before)
		}
	}

	// The Oracle policy is the one consumer: building it must flatten.
	cfg := HyperTRIOConfig()
	cfg.DevTLB.Policy = tlb.Oracle
	before := oracleFlattens.Load()
	if _, err := NewSystem(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if oracleFlattens.Load() == before {
		t.Fatal("Oracle config did not flatten the trace; Belady replacement has no future sequence")
	}
}

// TestOracleRequiresMaterialized pins the streaming/oracle coupling: a
// configuration with any Belady-policy cache cannot run from an online
// source — its replacement decisions need the whole future — and must
// fail fast with a clear error instead of silently materializing
// O(requests) state. Materialized adapters over the same config work.
func TestOracleRequiresMaterialized(t *testing.T) {
	cfg := HyperTRIOConfig()
	cfg.DevTLB.Policy = tlb.Oracle
	if !RequiresMaterialized(cfg) {
		t.Fatal("Oracle DevTLB config not reported as requiring materialization")
	}
	if RequiresMaterialized(HyperTRIOConfig()) {
		t.Fatal("non-Oracle config reported as requiring materialization")
	}
	tc := trace.Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: trace.RR1, Seed: 42, Scale: 0.02}
	src, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystemSource(cfg, src); err == nil {
		t.Fatal("Oracle config over a streaming source must fail fast")
	}
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.02)
	if _, err := NewSystemSource(cfg, tr.Source()); err != nil {
		t.Fatalf("Oracle config over a materialized adapter: %v", err)
	}
}

// warmSystem builds a System over a single-tenant trace, primes the
// engine, and steps past the cold phase (pool growth, cache fills,
// histogram buckets), leaving plenty of events pending.
func warmSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.2)
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	for i := 0; i < 3000; i++ {
		if !s.engine.Step() {
			t.Fatal("engine drained during warm-up; trace too small for the test")
		}
	}
	return s
}

// warmStreamSystem is warmSystem over an online streaming source: the
// packet pull path (Stream.Next through the generator) joins the measured
// hot path instead of a slice read.
func warmStreamSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	src, err := trace.NewStream(trace.Config{
		Benchmark: workload.Iperf3, Tenants: 1, Interleave: trace.RR1,
		Seed: 42, Scale: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	for i := 0; i < 3000; i++ {
		if !s.engine.Step() {
			t.Fatal("engine drained during warm-up; stream too small for the test")
		}
	}
	return s
}

// TestWarmPacketPathZeroAllocs pins the tentpole claim: once the pools
// and caches are warm, driving packets through the full datapath —
// arrivals, DevTLB hits, chipset misses, nested walks, completions —
// performs zero heap allocations per event.
func TestWarmPacketPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"hypertrio", HyperTRIOConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := warmSystem(t, tc.cfg)
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 10; i++ {
					s.engine.Step()
				}
			})
			if allocs != 0 {
				t.Fatalf("warm packet path allocated %v per 10 events, want 0", allocs)
			}
		})
	}
}

// TestWarmStreamPathZeroAllocs extends the zero-alloc pin to streaming
// runs: pulling packets from the online generator-backed source (instead
// of indexing a materialized slice) must not add a single allocation to
// the warm event path — otherwise million-tenant streaming runs would pay
// GC churn proportional to trace length.
func TestWarmStreamPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"hypertrio", HyperTRIOConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := warmStreamSystem(t, tc.cfg)
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 10; i++ {
					s.engine.Step()
				}
			})
			if allocs != 0 {
				t.Fatalf("warm streaming packet path allocated %v per 10 events, want 0", allocs)
			}
		})
	}
}
