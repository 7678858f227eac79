package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// zeroPacketTrace models a Scale that rounded every tenant's budget down
// to zero: tenants exist (page tables get built) but no packet arrives.
func zeroPacketTrace() *trace.Trace {
	return &trace.Trace{Meta: trace.Meta{Benchmark: workload.Iperf3, Tenants: 2, Scale: 0.001}}
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

// TestRegistryNamesComponents checks that the registry names every
// layer's cells and that its counters agree with the Result view.
func TestRegistryNamesComponents(t *testing.T) {
	tr := makeTrace(t, workload.Mediastream, 2, trace.RR1, 0.002)
	s, err := NewSystem(HyperTRIOConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	for _, name := range []string{
		"core.packets", "core.drops", "core.requests",
		"devtlb.hits", "devtlb.misses",
		"ptb.allocs", "ptb.rejected",
		"prefetch.issued", "prefetch.buffer.hits", "prefetch.predictor.predictions",
		"iommu.translations", "iommu.walks", "iommu.mem_accesses",
		"iommu.cc.lookups", "iommu.l2pwc.lookups", "iommu.l3pwc.lookups",
	} {
		if _, ok := reg.CounterValue(name); !ok {
			t.Fatalf("metric %q not registered (have %v)", name, reg.Names())
		}
	}
	if v, _ := reg.CounterValue("core.packets"); v != r.Packets {
		t.Fatalf("core.packets = %d, Result.Packets = %d", v, r.Packets)
	}
	if v, _ := reg.CounterValue("devtlb.hits"); v != r.DevTLB.Hits {
		t.Fatalf("devtlb.hits = %d, Result %d", v, r.DevTLB.Hits)
	}
	snap := reg.Snapshot()
	if snap.Histograms["core.miss_latency"].Count != r.IOMMU.Walks+0 && snap.Histograms["core.miss_latency"].Count == 0 {
		t.Fatal("miss latency histogram empty on a missing run")
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
