package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// faultConfig is the full HyperTRIO design with the given fault plan
// loaded (nil for a fault-free run).
func faultConfig(p *fault.Plan) Config {
	cfg := HyperTRIOConfig()
	cfg.Fault = p
	return cfg
}

// runWithStats runs one system and returns its result plus the fault
// injector's accounting (zero when no plan was loaded).
func runWithStats(t *testing.T, cfg Config, tr *trace.Trace) (Result, fault.Stats) {
	t.Helper()
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.FaultStats()
	return r, st
}

// horizonOf measures how long the trace runs fault-free, so plans can be
// scripted to land inside the run regardless of trace scale.
func horizonOf(t *testing.T, tr *trace.Trace) sim.Duration {
	t.Helper()
	r := run(t, faultConfig(nil), tr)
	if r.Elapsed <= 0 {
		t.Fatal("fault-free run reports no elapsed time")
	}
	return r.Elapsed
}

// TestFaultRunDeterministic pins reproducibility: the same plan against
// the same trace yields identical results, identical injector accounting
// and a byte-identical event trace across independent systems.
func TestFaultRunDeterministic(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.005)
	horizon := horizonOf(t, tr)
	plan := fault.InvalidationPlan(9, 8, horizon/16, horizon, true)

	type outcome struct {
		r     Result
		st    fault.Stats
		trace []byte
	}
	runOnce := func() outcome {
		var buf bytes.Buffer
		otr := obs.NewTracer(&buf)
		cfg := faultConfig(plan) // the plan value is shared: read-only once running
		cfg.Obs = &obs.Options{Tracer: otr}
		r, st := runWithStats(t, cfg, tr)
		if err := otr.Flush(); err != nil {
			t.Fatal(err)
		}
		return outcome{r: r, st: st, trace: buf.Bytes()}
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a.r, b.r) {
		t.Errorf("fault-enabled results drifted between identical runs:\n %+v\n %+v", a.r, b.r)
	}
	if a.st != b.st {
		t.Errorf("injector accounting drifted: %+v vs %+v", a.st, b.st)
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Error("fault-enabled event traces are not byte-identical")
	}
	if a.st.Applied == 0 || a.st.PageInvs == 0 {
		t.Fatalf("plan did not actually fire: %+v", a.st)
	}
}

// TestInvalidationsPerturbTheRun checks the tentpole's point: scripted
// invalidations reach the running datapath and force re-walks that a
// fault-free run does not do.
func TestInvalidationsPerturbTheRun(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.005)
	horizon := horizonOf(t, tr)
	clean, _ := runWithStats(t, faultConfig(nil), tr)

	plan := fault.InvalidationPlan(9, 8, horizon/32, horizon, true)
	faulted, st := runWithStats(t, faultConfig(plan), tr)

	if st.Applied != uint64(len(plan.Events)) {
		t.Errorf("applied %d of %d scripted events", st.Applied, len(plan.Events))
	}
	if st.Rewalks == 0 {
		t.Error("targeted ring-page invalidations forced no re-walks")
	}
	if faulted.IOMMU.Walks <= clean.IOMMU.Walks {
		t.Errorf("faulted run walked %d times, clean %d: invalidations had no effect",
			faulted.IOMMU.Walks, clean.IOMMU.Walks)
	}
	if faulted.DevTLB.Invalidates == 0 {
		t.Error("invalidations never reached the DevTLB")
	}
	if faulted.Packets != clean.Packets {
		t.Errorf("faulted run completed %d packets, clean %d: invalidations must not lose packets",
			faulted.Packets, clean.Packets)
	}
}

// TestWalkerFaultsSlowTheRun pins the retry path end to end: a fault
// window covering the whole run makes every cold walk back off, which
// must show up as retries and a longer run — with no packet lost.
func TestWalkerFaultsSlowTheRun(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	horizon := horizonOf(t, tr)
	clean, _ := runWithStats(t, faultConfig(nil), tr)

	plan := &fault.Plan{
		Retry:  fault.RetryPolicy{MaxRetries: 2, Backoff: 200 * sim.Nanosecond, BackoffMax: 2 * sim.Microsecond},
		Events: []fault.Event{{At: 0, Kind: fault.WalkerFault, Dur: 4 * horizon}},
	}
	faulted, st := runWithStats(t, faultConfig(plan), tr)

	if st.FaultRetries == 0 {
		t.Fatal("a run-long fault window produced no walk retries")
	}
	if faulted.Elapsed <= clean.Elapsed {
		t.Errorf("faulted run finished at %v, clean at %v: backoff added no latency",
			faulted.Elapsed, clean.Elapsed)
	}
	if faulted.AvgMissLatency <= clean.AvgMissLatency {
		t.Errorf("faulted miss latency %v not above clean %v", faulted.AvgMissLatency, clean.AvgMissLatency)
	}
	if faulted.Packets != clean.Packets {
		t.Errorf("faulted run completed %d packets, clean %d: retried walks must still complete",
			faulted.Packets, clean.Packets)
	}
}

// TestTenantChurnFlushesState pins the churn path: scripted SID teardown
// and re-attach flush per-tenant state mid-run while every conservation
// invariant (checked by the composed invariant stage and core's own
// cross-check inside Run) still holds.
func TestTenantChurnFlushesState(t *testing.T) {
	tr := makeTrace(t, workload.Mediastream, 16, trace.RR4, 0.01)
	horizon := horizonOf(t, tr)
	clean, _ := runWithStats(t, faultConfig(nil), tr)

	plan := fault.ChurnPlan(5, 16, horizon/12, horizon/48, horizon)
	churned, st := runWithStats(t, faultConfig(plan), tr)

	if st.Detaches == 0 || st.Detaches != st.Attaches {
		t.Fatalf("churn detaches=%d attaches=%d, want equal and nonzero", st.Detaches, st.Attaches)
	}
	if st.Dropped == 0 {
		t.Error("tenant teardowns dropped no cached state")
	}
	if churned.DevTLB.Invalidates == 0 {
		t.Error("teardown flushes never reached the DevTLB")
	}
	if churned.Packets != clean.Packets {
		t.Errorf("churned run completed %d packets, clean %d: churn must not lose packets",
			churned.Packets, clean.Packets)
	}
}

// TestFaultPlanSharesTemplates pins the one tenant-table build: a
// faulted System registers the same congruence-class templates as a
// fault-free one, so SIDs one ring window apart walk the same table and
// a class holds at most RingSlots distinct tables.
func TestFaultPlanSharesTemplates(t *testing.T) {
	const tenants = 64
	tr := makeTrace(t, workload.Iperf3, tenants, trace.RR1, 0.002)
	cfg := faultConfig(&fault.Plan{Events: []fault.Event{
		{At: 1000, Kind: fault.Remap, SID: 1, IOVA: workload.RingPageFor(1), Shift: 12},
	}})
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[*mem.NestedTable]bool{}
	for sid := mem.SID(1); sid <= tenants; sid++ {
		nt := s.tenants.Get(sid)
		if nt == nil {
			t.Fatalf("SID %d has no table", sid)
		}
		distinct[nt] = true
		if sid+workload.RingSlots <= tenants && s.tenants.Get(sid+workload.RingSlots) != nt {
			t.Errorf("SIDs %d and %d are in one congruence class but walk different tables",
				sid, sid+workload.RingSlots)
		}
	}
	if len(distinct) > workload.RingSlots {
		t.Errorf("faulted System holds %d distinct tables, want at most %d", len(distinct), workload.RingSlots)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFreeRunIdenticalWithPlanNil pins zero-cost-off at the system
// level: Config.Fault == nil builds no injector and changes nothing
// against a config that never heard of the fault subsystem.
func TestFaultFreeRunIdenticalWithPlanNil(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	cfg := HyperTRIOConfig()
	plain := run(t, cfg, tr)
	cfg.Fault = nil
	again := run(t, cfg, tr)
	if !reflect.DeepEqual(plain, again) {
		t.Error("nil fault plan perturbed the run")
	}
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FaultStats(); ok {
		t.Error("fault-free system reports injector stats")
	}
}

// TestPlanSIDOutOfRangeRejected pins the fault-plan SID bound: a plan
// touching a tenant the trace never built is an error before anything is
// allocated, not a silent no-op. Per-tenant state grows to the largest
// SID it is handed, so one event at SID 4e9 would exhaust memory.
func TestPlanSIDOutOfRangeRejected(t *testing.T) {
	const tenants = 4
	tr := makeTrace(t, workload.Iperf3, tenants, trace.RR1, 0.002)
	for _, ev := range []fault.Event{
		{At: 0, Kind: fault.Remap, SID: 99, IOVA: workload.RingPageFor(99), Shift: 12},
		{At: 1000, Kind: fault.Detach, SID: 4_000_000_000},
		{At: 1000, Kind: fault.InvalidateTenant, SID: tenants + 1},
		{At: 1000, Kind: fault.InvalidatePage, SID: 4_000_000_000, IOVA: 0x1000, Shift: 12},
		{At: 1000, Kind: fault.WalkerFault, SID: tenants + 1, N: 1},
	} {
		cfg := faultConfig(&fault.Plan{Events: []fault.Event{ev}})
		if _, err := NewSystem(cfg, tr); !errors.Is(err, ErrPlanSID) {
			t.Errorf("%s at SID %d: NewSystem() = %v, want ErrPlanSID", ev.Kind, ev.SID, err)
		}
	}
	// The last tenant is in range.
	cfg := faultConfig(&fault.Plan{Events: []fault.Event{{At: 1000, Kind: fault.Detach, SID: tenants}}})
	if _, err := NewSystem(cfg, tr); err != nil {
		t.Fatalf("detach of SID %d: %v", tenants, err)
	}
}

// TestConfigRejectsInvalidPlan pins plan validation at config level.
func TestConfigRejectsInvalidPlan(t *testing.T) {
	cfg := HyperTRIOConfig()
	cfg.Fault = &fault.Plan{Events: []fault.Event{{At: -1, Kind: fault.FlushAll}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an invalid fault plan")
	}
}

// TestLongRetryChainRuns replays a plan whose 46 retries per walk push
// the doubling backoff past int64 (500 ns << 45): the backoff must
// saturate at its cap, and the run must end in a Result whose
// accounting balances, not in a negative-delay panic.
func TestLongRetryChainRuns(t *testing.T) {
	plan, err := fault.ReadPlan(strings.NewReader(`{"schema":"hypertrio-faultplan/1",
		"retry":{"max_retries":46,"backoff_ns":500,"backoff_max_ns":10000},
		"events":[{"at_ns":0,"kind":"walker_fault","n":1000000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(faultConfig(plan), makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkConservation(r); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.FaultStats(); st.FaultRetries < 46 {
		t.Errorf("fault retries = %d, want at least one full 46-retry chain", st.FaultRetries)
	}
}
