package core

import (
	"math/rand"
	"testing"

	"hypertrio/internal/device"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// randomConfig builds a valid but arbitrary system configuration.
func randomConfig(rng *rand.Rand) Config {
	cfg := BaseConfig()
	if rng.Intn(2) == 0 {
		cfg = HyperTRIOConfig()
	}
	// Geometry.
	sets := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	ways := []int{1, 2, 4, 8}[rng.Intn(4)]
	cfg.DevTLB.Sets, cfg.DevTLB.Ways = sets, ways
	cfg.DevTLB.Policy = tlb.PolicyKind(rng.Intn(2)) // skip oracle: needs Future wiring here
	cfg.DevTLB.Index = tlb.IndexMode(rng.Intn(3))
	cfg.PTBEntries = 1 + rng.Intn(48)
	if rng.Intn(3) == 0 {
		cfg.Prefetch = nil
	} else {
		pf := device.DefaultPrefetchConfig()
		pf.BufferEntries = 1 + rng.Intn(16)
		pf.Degree = 1 + rng.Intn(3)
		pf.HistoryLen = 3 * (1 + rng.Intn(40))
		pf.AdaptiveHistory = rng.Intn(2) == 0
		cfg.Prefetch = &pf
	}
	if rng.Intn(4) == 0 {
		cfg.SerialRequests = true
	}
	if rng.Intn(4) == 0 {
		cfg.IOMMUWalkers = 1 + rng.Intn(16)
	}
	if rng.Intn(4) == 0 {
		cfg.PageTableLevels = 5
	}
	return cfg
}

// Property: any valid configuration processes the whole trace, respects
// capacity bounds, and reports sane aggregate metrics.
func TestPropertyRandomConfigsSane(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		kind := workload.Kinds[rng.Intn(len(workload.Kinds))]
		iv := []trace.Interleave{trace.RR1, trace.RR4, trace.RAND1}[rng.Intn(3)]
		tenants := []int{1, 3, 8, 17}[rng.Intn(4)]
		tr, err := trace.Construct(trace.Config{
			Benchmark: kind, Tenants: tenants, Interleave: iv,
			Seed: int64(trial), Scale: 0.002,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := randomConfig(rng)
		sys, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatalf("trial %d: %v (cfg %+v)", trial, err, cfg)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("trial %d: processed %d of %d packets", trial, r.Packets, len(tr.Packets))
		}
		if r.Utilization < 0 || r.Utilization > 1.0001 {
			t.Fatalf("trial %d: utilization %v", trial, r.Utilization)
		}
		if r.PTB.Peak > cfg.PTBEntries {
			t.Fatalf("trial %d: PTB peak %d > capacity %d", trial, r.PTB.Peak, cfg.PTBEntries)
		}
		if r.DevTLBServed+r.PrefetchServed > r.Requests {
			t.Fatalf("trial %d: served > requests", trial)
		}
		if cfg.DevTLB.Sets > 0 && r.DevTLB.Lookups > 0 &&
			r.DevTLB.Hits+r.DevTLB.Misses != r.DevTLB.Lookups {
			t.Fatalf("trial %d: DevTLB stats inconsistent: %+v", trial, r.DevTLB)
		}
		if r.LatencyFairness < 0 || r.LatencyFairness > 1.0001 {
			t.Fatalf("trial %d: Jain %v", trial, r.LatencyFairness)
		}
	}
}

// Property: adding link headroom (lower offered load) never increases
// drops and never reduces per-tenant fairness dramatically.
func TestPropertyOfferedLoadMonotone(t *testing.T) {
	tr, err := trace.Construct(trace.Config{
		Benchmark: workload.Iperf3, Tenants: 32, Interleave: trace.RR1,
		Seed: 5, Scale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	prevDrops := ^uint64(0)
	for _, rate := range []float64{200, 100, 50, 25} {
		cfg := BaseConfig()
		cfg.Params.ArrivalGbps = rate
		sys, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Drops > prevDrops {
			t.Fatalf("drops rose when offered load fell: %d at %v Gb/s (prev %d)",
				r.Drops, rate, prevDrops)
		}
		prevDrops = r.Drops
	}
}

// Property: walker-limited runs never beat unlimited ones, at any limit.
func TestPropertyWalkerLimitMonotone(t *testing.T) {
	tr, err := trace.Construct(trace.Config{
		Benchmark: workload.Websearch, Tenants: 64, Interleave: trace.RR1,
		Seed: 9, Scale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	unlimited := HyperTRIOConfig()
	sysU, err := NewSystem(unlimited, tr)
	if err != nil {
		t.Fatal(err)
	}
	rU, err := sysU.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 7} {
		cfg := HyperTRIOConfig()
		cfg.IOMMUWalkers = w
		sys, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.AchievedGbps > rU.AchievedGbps*1.01 {
			t.Fatalf("%d walkers (%.1f) beat unlimited (%.1f)", w, r.AchievedGbps, rU.AchievedGbps)
		}
	}
}

// Property: a trace built from a custom small-data profile runs end to
// end with page sizes honored throughout the stack.
func TestPropertySmallDataEndToEnd(t *testing.T) {
	small := workload.SmallDataVariant(workload.ProfileFor(workload.Websearch))
	tr, err := trace.Construct(trace.Config{
		Benchmark: workload.Websearch, Tenants: 12, Interleave: trace.RAND1,
		Seed: 3, Scale: 0.003, Profile: &small,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := func() (Result, error) {
		sys, err := NewSystem(HyperTRIOConfig(), tr)
		if err != nil {
			return Result{}, err
		}
		return sys.Run()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("processed %d of %d", r.Packets, len(tr.Packets))
	}
	// Small-data pages invalidate often; the DevTLB must see it.
	if r.DevTLB.Invalidates == 0 {
		t.Fatal("no invalidations despite 4K buffer churn")
	}
}
