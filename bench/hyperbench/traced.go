package main

import (
	"fmt"
	"runtime"
	"time"

	"hypertrio/internal/core"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
)

// timedPasses is the least number of times each layer log is replayed on
// fresh structures. A layer's time is assembled from each segment's
// fastest pass, as pkts_per_s is from each segment's fastest replay, so
// the ledger and the untraced time it is set against are one estimate.
const timedPasses = 3

// Timed layer replays, in ledger order; the nested walk is last.
const (
	layerSim = iota
	layerPTB
	layerDevTLB
	layerPrefetch
	layerMMU
	layerMem
	numLayers
)

// tracedRun is the per-layer measurement of one workload: an untraced
// baseline, one traced replay decoded into per-layer call logs, and
// timed replays of those logs.
type tracedRun struct {
	u        *untraced
	logs     logs
	tracedNs float64 // host ns per packet of the traced replay
	nextNs   float64 // host ns per Source.Next call
	chk      *mmuCheck
	passes   int
	fastest  [numLayers]fastestSegments
	// memMallocs is the fewest allocations of a nested-walk pass.
	memMallocs uint64
	// failures are the traced run's own; the untraced replays keep theirs.
	failures []string
}

// runTraced measures one workload layer by layer: a short untraced run
// for the live counts, the traced replay and the verifying pass, then
// untraced replays and timed layer passes in turn for three quarters of
// the budget. Alternating puts the ledger and the untraced time it is set
// against in the same minutes of a host whose speed drifts, with as many
// samples each.
func runTraced(w workloadDef, seed int64, size float64, budget time.Duration, want string) (*tracedRun, error) {
	u, err := measure(w, seed, size, 0, want)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{u: u}
	if u.sys == nil {
		t.failures = append(t.failures, "no untraced replay succeeded")
		return t, nil
	}
	if err := t.trace(w, seed, size); err != nil {
		t.failures = append(t.failures, err.Error())
		return t, nil
	}
	if err := t.measureNext(); err != nil {
		return nil, err
	}
	if err := t.verify(); err != nil {
		t.failures = append(t.failures, err.Error())
		return t, nil
	}
	u.bestSegs = nil
	for start := time.Now(); t.passes < timedPasses || time.Since(start) < budget*3/4; t.passes++ {
		if err := u.timedReplay(); err != nil {
			return nil, err
		}
		if err := t.timePass(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// trace runs the traced replay into the decoder.
func (t *tracedRun) trace(w workloadDef, seed int64, size float64) error {
	inst, err := w.build(seed, size)
	if err != nil {
		return err
	}
	shadow, err := inst.fresh()
	if err != nil {
		return err
	}
	cfg := inst.cfg
	dec := newDecoder(shadow, cfg.DevTLB.Sets > 0, cfg.Prefetch != nil, float64(cfg.Params.Interarrival()))
	tr := obs.NewTracer(dec)
	cfg.Obs = &obs.Options{Tracer: tr, EngineEvents: true}
	sys, err := core.NewSystemSource(cfg, inst.src)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	res, err := sys.Run()
	elapsed := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	if err := tr.Flush(); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	if err := dec.finish(); err != nil {
		return err
	}
	if got, want := digest(res), digest(t.u.res); got != want {
		return fmt.Errorf("traced replay digest %s differs from untraced %s", got, want)
	}
	t.logs = dec.logs
	t.tracedNs = float64(elapsed.Nanoseconds()) / float64(res.Packets)
	return nil
}

// measureNext times draining a fresh source: the packet supply the
// model pulls once per accepted packet.
func (t *tracedRun) measureNext() error {
	var ns []float64
	for i := 0; i < timedPasses; i++ {
		src, err := t.u.inst.fresh()
		if err != nil {
			return err
		}
		calls := 0
		t0 := time.Now()
		for {
			calls++
			if _, ok := src.Next(); !ok {
				break
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	t.nextNs = minOf(ns)
	return nil
}

// unrun returns the layer structures of a fresh, never-run System of the
// same workload.
func (t *tracedRun) unrun() (structures, error) {
	src, err := t.u.inst.fresh()
	if err != nil {
		return structures{}, err
	}
	sys, err := core.NewSystemSource(t.u.inst.cfg, src)
	if err != nil {
		return structures{}, err
	}
	return structuresOf(sys), nil
}

func degree(s structures) int {
	if s.pu == nil {
		return 0
	}
	return s.pu.Config().Degree
}

// verify replays every log once on fresh structures and checks that each
// reproduces the live run's counts within 1%; a replay that does not
// measures a different program.
func (t *tracedRun) verify() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer replay diverged from the live run: %v", r)
		}
	}()
	s, err := t.unrun()
	if err != nil {
		return err
	}
	live := t.u.res
	liveMemo := structuresOf(t.u.sys).mmu.MemoStats()
	var bad []string
	check := func(name string, replayed, want uint64) {
		if !within(replayed, want) {
			bad = append(bad, fmt.Sprintf("%s: replay %d, live %d", name, replayed, want))
		}
	}
	check("core.packets", t.logs.packets, live.Packets)
	check("core.slots", t.logs.slots, live.Packets+live.Drops)
	check("core.requests", t.logs.requests, live.Requests)
	engine, hash := sim.NewEngine(), uint64(fnvOffset)
	replaySim(engine, t.logs.sim, &hash)
	check("sim.fired", engine.Fired(), t.logs.fires)
	if hash != t.logs.fireHash {
		bad = append(bad, "sim: replayed fire times differ from the live run")
	}

	replayPTB(s.ptb, t.logs.ptb)
	ps := s.ptb.Stats()
	check("ptb.allocs", ps.Allocs, live.PTB.Allocs)
	check("ptb.rejected", ps.Rejected, live.PTB.Rejected)

	if s.devtlb != nil {
		replayDevTLB(s.devtlb, t.logs.devtlb)
		ds := s.devtlb.Stats()
		check("devtlb.lookups", ds.Lookups, live.DevTLB.Lookups)
		check("devtlb.hits", ds.Hits, live.DevTLB.Hits)
		check("devtlb.misses", ds.Misses, live.DevTLB.Misses)
		check("devtlb.insertions", ds.Insertions, live.DevTLB.Insertions)
		check("devtlb.invalidates", ds.Invalidates, live.DevTLB.Invalidates)
	}

	t.chk = &mmuCheck{table: tableSource(t.u.inst.src.Meta(), t.u.inst.cfg.PageTableLevels)}
	replayMMU(s.mmu, t.logs.mmu, degree(s), t.chk, &mmuScratch{})
	if t.chk.mismatch != nil {
		bad = append(bad, "iommu: "+t.chk.mismatch.Error())
	}
	ms, memo := s.mmu.Stats(), s.mmu.MemoStats()
	check("iommu.translations", ms.Translations, live.IOMMU.Translations)
	check("iommu.walks", ms.Walks, live.IOMMU.Walks)
	check("iommu.mem_accesses", ms.MemAccesses, live.IOMMU.MemAccesses)
	check("memo.hits", memo.Hits, liveMemo.Hits)
	check("memo.misses", memo.Misses, liveMemo.Misses)
	check("mem.walks", uint64(len(t.chk.walks)), liveMemo.Misses)

	if s.pu != nil {
		for _, op := range t.logs.pf {
			if op.kind == opComplete && int(op.n) != len(t.chk.fills[op.arg>>32]) {
				bad = append(bad, fmt.Sprintf("prefetch fill of SID %d: replay translated %d entries, live fill carried %d",
					op.sid, len(t.chk.fills[op.arg>>32]), op.n))
				break
			}
		}
		replayPrefetch(s.pu, t.logs.pf, t.chk.fills)
		fs := s.pu.Stats()
		check("prefetch.issued", fs.Issued, live.Prefetch.Issued)
		check("prefetch.served", fs.Served, live.Prefetch.Served)
		check("prefetch.installed", fs.Installed, live.Prefetch.Installed)
		check("prefetch.suppressed", fs.Suppressed, live.Prefetch.Suppressed)
	}
	if len(bad) > 0 {
		return fmt.Errorf("layer replay does not reproduce the live run: %v", bad)
	}
	return nil
}

// timePass replays every log once on fresh structures, with the
// collector settled before each layer. Each log is handed to its replay
// in segments of as many entries as about segmentPackets packets make,
// so a pass is cut as finely as an untraced replay, and each segment is
// timed from outside the calls.
func (t *tracedRun) timePass() error {
	t.u.clock.sample()
	s, err := t.unrun()
	if err != nil {
		return err
	}
	every := func(entries int) int { return max(entries*segmentPackets/int(t.logs.packets), 1) }
	timed := func(layer int, ends []int, replay func(lo, hi int)) {
		segs := make([]float64, len(ends))
		runtime.GC()
		lo, prev := 0, time.Now()
		for k, hi := range ends {
			replay(lo, hi)
			now := time.Now()
			segs[k] = now.Sub(prev).Seconds()
			lo, prev = hi, now
		}
		t.fastest[layer].fold(segs)
	}
	l := &t.logs
	engine := sim.NewEngine()
	timed(layerSim, simSegmentEnds(l.sim, every(len(l.sim))), func(lo, hi int) { replaySim(engine, l.sim[lo:hi], nil) })
	timed(layerPTB, segmentEnds(len(l.ptb), every(len(l.ptb))), func(lo, hi int) { replayPTB(s.ptb, l.ptb[lo:hi]) })
	if s.devtlb != nil {
		timed(layerDevTLB, segmentEnds(len(l.devtlb), every(len(l.devtlb))), func(lo, hi int) { replayDevTLB(s.devtlb, l.devtlb[lo:hi]) })
	}
	if s.pu != nil {
		timed(layerPrefetch, segmentEnds(len(l.pf), every(len(l.pf))), func(lo, hi int) { replayPrefetch(s.pu, l.pf[lo:hi], t.chk.fills) })
	}
	var scratch mmuScratch
	timed(layerMMU, segmentEnds(len(l.mmu), every(len(l.mmu))), func(lo, hi int) { replayMMU(s.mmu, l.mmu[lo:hi], degree(s), nil, &scratch) })
	walks := t.chk.walks
	var buf []mem.NestedAccess
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	timed(layerMem, segmentEnds(len(walks), every(len(walks))), func(lo, hi int) { replayMem(walks[lo:hi], &buf) })
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; t.passes == 0 || n < t.memMallocs {
		t.memMallocs = n
	}
	return nil
}

// layerNs is one layer's replay time in reference-host nanoseconds.
func (t *tracedRun) layerNs(layer int) float64 {
	return t.fastest[layer].total() * 1e9 * t.u.clock.scale()
}

// perLayer reports the layer metrics. Per-layer ns/pkt is replay ns per
// operation times the live run's operations per packet; the ledger sums
// the layers the model calls directly (the nested walk runs inside the
// chipset) and the residual is what they leave of the untraced ns/pkt.
// Host times are in reference-host units (hostclock.go).
func (t *tracedRun) perLayer() []metric {
	u, r, l := t.u, t.u.res, &t.logs
	k := u.clock.scale()
	pk := float64(r.Packets)
	liveMemo := structuresOf(u.sys).mmu.MemoStats()
	reg := u.sys.Registry()
	faultApplied, _ := reg.CounterValue("fault.applied")
	faultRewalks, _ := reg.CounterValue("fault.rewalks")

	untracedNs := u.nsPerPkt()
	nextNs := t.nextNs * k
	nextPerPkt := nextNs * (pk + 1) / pk
	eventsPerPkt := float64(l.fires) / pk
	simPerEvent := t.layerNs(layerSim) / float64(l.fires)
	ptbOpsPerPkt := float64(r.PTB.Allocs+r.PTB.Rejected+r.Packets) / pk
	ptbPerPkt := ratio(t.layerNs(layerPTB), float64(len(l.ptb))) * ptbOpsPerPkt
	lookupsPerPkt := float64(r.DevTLB.Lookups) / pk
	nsPerLookup := ratio(t.layerNs(layerDevTLB), float64(r.DevTLB.Lookups))
	pfPerPkt := t.layerNs(layerPrefetch) / float64(l.packets)
	translPerPkt := float64(r.IOMMU.Translations) / pk
	nsPerTransl := ratio(t.layerNs(layerMMU), float64(r.IOMMU.Translations))
	walks := float64(len(t.chk.walks))

	simPerPkt := simPerEvent * eventsPerPkt
	devtlbPerPkt := nsPerLookup * lookupsPerPkt
	mmuPerPkt := nsPerTransl * translPerPkt
	attributed := nextPerPkt + simPerPkt + ptbPerPkt + devtlbPerPkt + pfPerPkt + mmuPerPkt
	residual := untracedNs - attributed

	return []metric{
		medianOf("trace.build_s", u.scaled(func(r replay) float64 { return r.buildS })),
		single("trace.next_ns", nextNs),
		medianOf("core.newsystem_s", u.scaled(func(r replay) float64 { return r.newsysS })),
		single("core.slots_per_pkt", float64(r.Packets+r.Drops)/pk),
		single("core.residual_ns_per_pkt", residual),
		single("core.residual_ratio", residual/untracedNs),
		single("sim.events_per_pkt", eventsPerPkt),
		single("sim.ns_per_event", simPerEvent),
		single("sim.ns_per_pkt", simPerPkt),
		single("ptb.ops_per_pkt", ptbOpsPerPkt),
		single("ptb.reject_ratio", ratio(float64(r.PTB.Rejected), float64(r.PTB.Allocs+r.PTB.Rejected))),
		single("ptb.ns_per_pkt", ptbPerPkt),
		single("devtlb.lookups_per_pkt", lookupsPerPkt),
		single("devtlb.hit_ratio", r.DevTLB.HitRate()),
		single("devtlb.invalidates_per_pkt", float64(r.DevTLB.Invalidates)/pk),
		single("devtlb.ns_per_lookup", nsPerLookup),
		single("devtlb.ns_per_pkt", devtlbPerPkt),
		single("prefetch.issued_per_pkt", float64(r.Prefetch.Issued)/pk),
		single("prefetch.useful_ratio", ratio(float64(r.Prefetch.Served), float64(r.Prefetch.Installed))),
		single("prefetch.ns_per_pkt", pfPerPkt),
		single("iommu.translations_per_pkt", translPerPkt),
		single("iommu.walks_per_pkt", float64(r.IOMMU.Walks)/pk),
		single("iommu.mem_accesses_per_translation", ratio(float64(r.IOMMU.MemAccesses), float64(r.IOMMU.Translations))),
		single("iommu.cc_hit_ratio", r.IOMMU.ContextCache.HitRate()),
		single("iommu.l2pwc_hit_ratio", r.IOMMU.L2PWC.HitRate()),
		single("iommu.l3pwc_hit_ratio", r.IOMMU.L3PWC.HitRate()),
		single("memo.hit_ratio", ratio(float64(liveMemo.Hits), float64(liveMemo.Hits+liveMemo.Misses))),
		single("iommu.ns_per_translation", nsPerTransl),
		single("iommu.ns_per_pkt", mmuPerPkt),
		single("mem.ns_per_walk", ratio(t.layerNs(layerMem), walks)),
		single("mem.allocs_per_walk", ratio(float64(t.memMallocs), walks)),
		single("fault.events_per_pkt", float64(faultApplied)/pk),
		single("fault.rewalks_per_pkt", float64(faultRewalks)/pk),
		medianOf("scenario.compile_s", u.scaled(func(r replay) float64 { return r.compileS })),
		single("model.gbps", r.AchievedGbps),
		single("model.drop_ratio", r.DropRate()),
		single("model.miss_latency_ns", r.AvgMissLatency.Nanoseconds()),
		single("model.jain", r.LatencyFairness),
		single("ledger.attributed_ns_per_pkt", attributed),
		single("trace_overhead", t.tracedNs*k/untracedNs),
	}
}
