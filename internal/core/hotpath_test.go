package core

import (
	"reflect"
	"testing"

	"hypertrio/internal/fault"
	"hypertrio/internal/iommu"
	"hypertrio/internal/pipeline"
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

// TestStreamMatchesTrace: a run over an online stream equals the run
// over the materialized trace of the same config, for Base, HyperTRIO
// and HyperTRIO under tenant churn.
func TestStreamMatchesTrace(t *testing.T) {
	tc := trace.Config{Benchmark: workload.Websearch, Tenants: 16, Interleave: trace.RR1, Seed: 42, Scale: 0.005}
	tr, err := trace.Construct(tc)
	if err != nil {
		t.Fatal(err)
	}
	horizon := horizonOf(t, tr)
	for name, cfg := range map[string]Config{
		"base":      BaseConfig(),
		"hypertrio": HyperTRIOConfig(),
		"churn":     faultConfig(fault.ChurnPlan(5, 16, horizon/12, horizon/48, horizon)),
	} {
		src, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystemSource(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := run(t, cfg, tr); got.Packets == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream diverged from the trace:\n%+v\n%+v", name, got, want)
		}
		if st, _ := s.FaultStats(); cfg.Fault != nil && st.Detaches == 0 {
			t.Errorf("%s: the plan detached no tenant", name)
		}
	}
}

// TestOracleFromStream: an Oracle (Belady) DevTLB reads its future by
// draining the source and rewinding it, so a run over an online stream
// equals the run over the materialized trace of the same config.
func TestOracleFromStream(t *testing.T) {
	cfg := HyperTRIOConfig()
	cfg.DevTLB.Policy = tlb.Oracle
	tc := trace.Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: trace.RR1, Seed: 42, Scale: 0.02}
	src, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemSource(cfg, src)
	if err != nil {
		t.Fatalf("Oracle config over a stream: %v", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, cfg, makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.02))
	if got.Packets == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Oracle run over a stream diverged from the trace:\n%+v\n%+v", got, want)
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

// TestWarmStreamPathZeroAllocs extends the zero-alloc pin to online
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

// TestBaseEventBudget pins the drop-retry fast-forward: Base's single
// PTB entry turns away about 35 link slots per accepted packet, and
// those dead slots must not cost one engine event each. Per slot, Base
// fires about 45 events per packet on 1024 websearch tenants;
// fast-forwarded, the arrival, walk and completion events stay and the
// dropped slots cost none.
func TestBaseEventBudget(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 64, trace.RR1, 0.002)
	s, err := NewSystem(BaseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	slots := float64(r.Packets+r.Drops) / float64(r.Packets)
	events := float64(s.engine.Fired()) / float64(r.Packets)
	t.Logf("%d packets: %.2f link slots and %.2f engine events per packet", r.Packets, slots, events)
	if slots < 30 {
		t.Fatalf("%.2f link slots per packet: the trace no longer blocks the link", slots)
	}
	if events > 20 {
		t.Fatalf("%.2f engine events per packet, want at most 20: dropped slots are firing one event each", events)
	}
}

// TestSharedTableMemoHitRatio pins the walk memo's reuse across tenants:
// a fault-free run registers one template table per ring slot for all
// 1024 tenants, and the memo is keyed by the walked table, so one
// tenant's walk serves every tenant on that table. Keyed per SID, the
// same run served 49% of lookups.
func TestSharedTableMemoHitRatio(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 1024, trace.RR1, 0.002)
	s, err := NewSystem(HyperTRIOConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var ms iommu.MemoStats
	for _, st := range s.Chain().Stages() {
		if cs, ok := st.(*pipeline.ChipsetStage); ok {
			ms = cs.IOMMU().MemoStats()
		}
	}
	ratio := float64(ms.Hits) / float64(ms.Hits+ms.Misses)
	t.Logf("memo: %d hits, %d misses, %d fills: hit ratio %.4f", ms.Hits, ms.Misses, ms.Fills, ratio)
	if !ms.Enabled || !(ratio >= 0.95) {
		t.Fatalf("memo hit ratio %.4f (%+v), want at least 0.95", ratio, ms)
	}
}
