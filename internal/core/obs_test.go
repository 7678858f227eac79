package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/fault"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// zeroPacketTrace models a Scale that rounded every tenant's budget down
// to zero: tenants exist (page tables get built) but no packet arrives.
func zeroPacketTrace() *trace.Trace {
	return &trace.Trace{Meta: trace.Meta{
		Benchmark: workload.Iperf3, Tenants: 2, Scale: 0.001, Profile: workload.ProfileFor(workload.Iperf3),
	}}
}

// TestZeroPacketRun pins the degenerate-run accounting: a tenant-ful but
// packet-less trace must run to a fully zeroed Result with no NaN or
// division-by-zero in any derived rate.
func TestZeroPacketRun(t *testing.T) {
	for _, cfg := range []Config{BaseConfig(), HyperTRIOConfig(), {Params: DefaultParams(), TranslationOff: true}} {
		s, err := NewSystem(cfg, zeroPacketTrace())
		if err != nil {
			t.Fatalf("zero-packet trace rejected: %v", err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatalf("zero-packet run failed: %v", err)
		}
		if r.Packets != 0 || r.Drops != 0 || r.Bytes != 0 || r.Requests != 0 {
			t.Fatalf("zero-packet run counted traffic: %+v", r)
		}
		if r.AchievedGbps != 0 || r.Utilization != 0 || r.Elapsed != 0 {
			t.Fatalf("zero-packet run reports bandwidth: %+v", r)
		}
		if r.AvgMissLatency != 0 || r.LatencyFairness != 0 {
			t.Fatalf("zero-packet run reports latency: %+v", r)
		}
		for name, v := range map[string]float64{
			"AchievedGbps": r.AchievedGbps, "Utilization": r.Utilization,
			"LatencyFairness": r.LatencyFairness, "DropRate": r.DropRate(),
			"PrefetchServedShare": r.PrefetchServedShare(),
			"DevTLBHitRate":       r.DevTLB.HitRate(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("zero-packet run: %s = %v", name, v)
			}
		}
	}
}

// TestTenantlessTraceRejected keeps the original input contract: a trace
// with no tenants has nothing to build page tables for.
func TestTenantlessTraceRejected(t *testing.T) {
	if _, err := NewSystem(BaseConfig(), nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := NewSystem(BaseConfig(), &trace.Trace{}); err == nil {
		t.Fatal("tenant-less trace accepted")
	}
}

// TestZeroMissRun exercises the zero-miss accounting path: with
// translation off no request ever reaches the chipset, so the miss
// aggregates must stay zero while packets still complete.
func TestZeroMissRun(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.002)
	cfg := Config{Params: DefaultParams(), TranslationOff: true}
	r := run(t, cfg, tr)
	if r.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("packets = %d, want %d", r.Packets, len(tr.Packets))
	}
	if r.AvgMissLatency != 0 || r.IOMMU.Walks != 0 {
		t.Fatalf("translation-off run walked: %+v", r)
	}
	if math.IsNaN(r.LatencyFairness) || r.LatencyFairness <= 0 {
		t.Fatalf("fairness = %v", r.LatencyFairness)
	}
}

// TestObservabilityDeterminism pins the layer's core contract: enabling
// every observability feature must not change simulation outcomes.
func TestObservabilityDeterminism(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 4, trace.RR4, 0.002)
	cfg := HyperTRIOConfig()
	cfg.IOMMUWalkers = 4
	plain := run(t, cfg, tr)

	ocfg := cfg
	ocfg.Obs = &obs.Options{
		Tracer:       obs.NewTracer(io.Discard),
		EngineEvents: true,
		SampleEvery:  5 * sim.Microsecond,
	}
	observed := run(t, ocfg, tr)
	if observed.Series == nil || len(observed.Series.Points) == 0 {
		t.Fatal("sampling enabled but no series recorded")
	}
	observed.Series = nil
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observability changed the simulation:\noff: %+v\non:  %+v", plain, observed)
	}
}

// TestSamplerSeries checks the time-series sampler's shape: strictly
// increasing timestamps on the interval grid, a final partial-window
// point at the end of the run, and no NaN rates.
func TestSamplerSeries(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.004)
	cfg := BaseConfig()
	cfg.Obs = &obs.Options{SampleEvery: 10 * sim.Microsecond}
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Series == nil || len(r.Series.Points) == 0 {
		t.Fatal("no series")
	}
	if r.Series.Interval != cfg.Obs.SampleEvery {
		t.Fatalf("interval = %v", r.Series.Interval)
	}
	prev := int64(-1)
	for i, p := range r.Series.Points {
		if p.T <= prev {
			t.Fatalf("point %d: t %d <= previous %d", i, p.T, prev)
		}
		prev = p.T
		if math.IsNaN(p.Gbps) || math.IsNaN(p.PBHitRate) || math.IsNaN(p.DevTLBHitRate) {
			t.Fatalf("point %d has NaN: %+v", i, p)
		}
		if p.PTBInUse < 0 || p.PTBInUse > cfg.PTBEntries {
			t.Fatalf("point %d: PTB occupancy %d out of [0,%d]", i, p.PTBInUse, cfg.PTBEntries)
		}
	}
	// The series must cover the whole run: the final point is either the
	// sampler's last tick (which may trail the final completion by up to
	// one interval) or the partial-window close at the last event.
	if got := r.Series.Points[len(r.Series.Points)-1].T; got < int64(r.Elapsed) {
		t.Fatalf("final sample at %d precedes run end %d", got, int64(r.Elapsed))
	}
}

// TestRegistryNamesComponents pins each registry counter to the Result
// or FaultStats field it reports, on Base, HyperTRIO and HyperTRIO under
// tenant churn. Counters derived at read time (a cache's misses, the
// prefetch unit's served and installed counts, the served counts in
// core.*) must name the same value as the field, and a stage's counters
// are registered exactly when the stage is composed.
func TestRegistryNamesComponents(t *testing.T) {
	counters := []struct {
		name string
		want func(Result, fault.Stats) uint64
	}{
		{"core.packets", func(r Result, _ fault.Stats) uint64 { return r.Packets }},
		{"core.drops", func(r Result, _ fault.Stats) uint64 { return r.Drops }},
		{"core.bytes", func(r Result, _ fault.Stats) uint64 { return r.Bytes }},
		{"core.requests", func(r Result, _ fault.Stats) uint64 { return r.Requests }},
		{"core.devtlb_served", func(r Result, _ fault.Stats) uint64 { return r.DevTLBServed }},
		{"core.prefetch_served", func(r Result, _ fault.Stats) uint64 { return r.PrefetchServed }},
		{"devtlb.lookups", func(r Result, _ fault.Stats) uint64 { return r.DevTLB.Lookups }},
		{"devtlb.hits", func(r Result, _ fault.Stats) uint64 { return r.DevTLB.Hits }},
		{"devtlb.misses", func(r Result, _ fault.Stats) uint64 { return r.DevTLB.Misses }},
		{"devtlb.invalidates", func(r Result, _ fault.Stats) uint64 { return r.DevTLB.Invalidates }},
		{"ptb.allocs", func(r Result, _ fault.Stats) uint64 { return r.PTB.Allocs }},
		{"ptb.rejected", func(r Result, _ fault.Stats) uint64 { return r.PTB.Rejected }},
		{"prefetch.issued", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Issued }},
		{"prefetch.served", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Served }},
		{"prefetch.installed", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Installed }},
		{"prefetch.suppressed", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Suppressed }},
		{"prefetch.buffer.hits", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Buffer.Hits }},
		{"prefetch.buffer.misses", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Buffer.Misses }},
		{"prefetch.predictor.predictions", func(r Result, _ fault.Stats) uint64 { return r.Prefetch.Predictor.Predictions }},
		{"iommu.translations", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.Translations }},
		{"iommu.walks", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.Walks }},
		{"iommu.mem_accesses", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.MemAccesses }},
		{"iommu.cc.misses", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.ContextCache.Misses }},
		{"iommu.l2pwc.lookups", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.L2PWC.Lookups }},
		{"iommu.l3pwc.lookups", func(r Result, _ fault.Stats) uint64 { return r.IOMMU.L3PWC.Lookups }},
		{"fault.applied", func(_ Result, f fault.Stats) uint64 { return f.Applied }},
		{"fault.dropped", func(_ Result, f fault.Stats) uint64 { return f.Dropped }},
		{"fault.page_invalidates", func(_ Result, f fault.Stats) uint64 { return f.PageInvs }},
		{"fault.tenant_invalidates", func(_ Result, f fault.Stats) uint64 { return f.TenantInvs }},
		{"fault.flushes", func(_ Result, f fault.Stats) uint64 { return f.Flushes }},
		{"fault.remaps", func(_ Result, f fault.Stats) uint64 { return f.Remaps }},
		{"fault.walker_faults", func(_ Result, f fault.Stats) uint64 { return f.WalkerFaults }},
		{"fault.fault_retries", func(_ Result, f fault.Stats) uint64 { return f.FaultRetries }},
		{"fault.rewalks", func(_ Result, f fault.Stats) uint64 { return f.Rewalks }},
		{"fault.stale_hits", func(_ Result, f fault.Stats) uint64 { return f.StaleHits }},
		{"fault.detaches", func(_ Result, f fault.Stats) uint64 { return f.Detaches }},
		{"fault.attaches", func(_ Result, f fault.Stats) uint64 { return f.Attaches }},
	}
	// 32 websearch tenants overflow the DevTLB enough that the Prefetch
	// Buffer serves about a third of its lookups.
	tr := makeTrace(t, workload.Websearch, 32, trace.RR1, 0.002)
	horizon := horizonOf(t, tr)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"hypertrio", HyperTRIOConfig()},
		{"churn", faultConfig(fault.ChurnPlan(5, 32, horizon/12, horizon/48, horizon))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			fs, _ := s.FaultStats()
			reg := s.Registry()
			for _, c := range counters {
				composed := true
				switch {
				case strings.HasPrefix(c.name, "prefetch."):
					composed = tc.cfg.Prefetch != nil
				case strings.HasPrefix(c.name, "fault."):
					composed = tc.cfg.Fault != nil
				}
				got, ok := reg.CounterValue(c.name)
				if ok != composed {
					t.Errorf("%s registered = %v, want %v", c.name, ok, composed)
				} else if want := c.want(r, fs); got != want {
					t.Errorf("%s = %d, want %d", c.name, got, want)
				}
			}
			if snap := reg.Snapshot(); snap.Histograms["core.miss_latency"].Count == 0 {
				t.Error("miss latency histogram empty on a missing run")
			}
		})
	}
}

// TestPropertyDropRetryInvariant replays a PTB-starved run with tracing
// on and checks the flow-conservation invariants between the trace and
// the Result: every link slot is an arrival or a retry, accepted+dropped
// slots account for all of them, and derived rates stay in [0,1].
func TestPropertyDropRetryInvariant(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.002)
	cfg := BaseConfig() // PTBEntries=1: heavy drop/retry traffic
	var buf bytes.Buffer
	cfg.Obs = &obs.Options{Tracer: obs.NewTracer(&buf)}
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	counts := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		counts[ev.Ev]++
	}
	attempts := counts["arrival"] + counts["retry"]
	if got := r.Packets + r.Drops; got != attempts {
		t.Fatalf("Packets+Drops = %d, trace saw %d arrival attempts", got, attempts)
	}
	if counts["drop"] != r.Drops {
		t.Fatalf("trace drops = %d, Result.Drops = %d", counts["drop"], r.Drops)
	}
	if counts["complete"] != r.Packets {
		t.Fatalf("trace completions = %d, Result.Packets = %d", counts["complete"], r.Packets)
	}
	if counts["arrival"] != uint64(len(tr.Packets)) {
		t.Fatalf("first arrivals = %d, trace has %d packets", counts["arrival"], len(tr.Packets))
	}
	if want := r.Packets * uint64(cfg.Params.PacketBytes); r.Bytes != want {
		t.Fatalf("Bytes = %d, want Packets*PacketBytes = %d", r.Bytes, want)
	}
	hits := counts["devtlb_hit"] + counts["prefetch_hit"] + counts["devtlb_miss"]
	if hits != r.Requests {
		t.Fatalf("per-request events = %d, Result.Requests = %d", hits, r.Requests)
	}
	if dr := r.DropRate(); dr < 0 || dr > 1 {
		t.Fatalf("DropRate = %v", dr)
	}
	if ps := r.PrefetchServedShare(); ps < 0 || ps > 1 {
		t.Fatalf("PrefetchServedShare = %v", ps)
	}
	if r.Drops == 0 || counts["retry"] == 0 {
		t.Fatalf("test needs drop pressure to bite: drops=%d retries=%d", r.Drops, counts["retry"])
	}
}
