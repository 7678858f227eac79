package pipeline

import (
	"fmt"
	"strings"

	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
)

// Trace events of the device-side probe path. The names are fixed for
// schema stability (hypertrio-trace/1): the miss event stays
// "devtlb_miss" even in chains without a DevTLB, where it marks the
// request leaving the device.
const (
	missEvent        = "devtlb_miss"
	prefetchHitEvent = "prefetch_hit"
)

// Chain is the composed translation datapath: one field per stage, in
// datapath order, nil where the Config leaves the stage out. The chain
// of the zero Config (the native path) admits everything, serves no
// lookup and reports zeroes.
type Chain struct {
	ptb     *AdmissionStage      // nil without admission
	devtlb  *CacheStage          // nil when the DevTLB is disabled
	pb      *PrefetchBufferStage // nil without prefetching
	chipset *ChipsetStage        // nil on the native path
	history *HistoryReaderStage  // nil without prefetching

	// stages lists the composed stages in datapath order for Describe,
	// Register and Stages.
	stages []Stage
	tracer *obs.Tracer
	pool   *WalkerPool
	// faults is the fault injector's hook (nil in every fault-free run;
	// all uses are nil-guarded so the hot path is untouched without it).
	faults FaultHook
}

// New composes the datapath cfg describes into env: admission, the
// DevTLB, the Prefetch Buffer, the chipset and the history reader, each
// present as cfg says. The zero Config composes
// no stages — the native path.
func New(env Env, cfg Config) *Chain {
	c := &Chain{tracer: env.Tracer, faults: env.Faults, pool: NewWalkerPool(cfg.Walkers)}
	if cfg == (Config{}) {
		return c
	}
	if cfg.PTBEntries > 0 {
		c.ptb = &AdmissionStage{ptb: device.NewPTB(cfg.PTBEntries)}
		c.stages = append(c.stages, c.ptb)
	}
	if cfg.DevTLB.Sets > 0 {
		c.devtlb = newCacheStage(cfg.DevTLB, env.OracleKeys)
		c.stages = append(c.stages, c.devtlb)
	}
	if cfg.Prefetch != nil {
		c.pb = &PrefetchBufferStage{pu: device.NewPrefetchUnit(*cfg.Prefetch)}
		c.stages = append(c.stages, c.pb)
	}
	c.chipset = &ChipsetStage{
		mmu: iommu.New(cfg.IOMMU, env.Tenants), pool: c.pool,
		lat: env.Lat, tracer: env.Tracer, faults: env.Faults, devtlb: c.devtlb,
	}
	c.stages = append(c.stages, c.chipset)
	if c.pb != nil {
		c.history = &HistoryReaderStage{
			pu: c.pb.pu, mmu: c.chipset.mmu, pool: c.pool,
			lat: env.Lat, tracer: env.Tracer,
		}
		c.stages = append(c.stages, c.history)
	}
	return c
}

// Admit takes an admission slot for one packet (always true without an
// admission stage).
func (c *Chain) Admit() bool { return c.ptb.Admit() }

// ReleaseSlot frees the admission slot at packet completion.
func (c *Chain) ReleaseSlot() { c.ptb.Release() }

// Observe feeds the accepted packet stream to the prefetch predictor.
func (c *Chain) Observe(sid mem.SID) {
	if c.history != nil {
		c.history.Observe(sid)
	}
}

// Lookup probes the device-side stages in datapath order: the DevTLB,
// then the Prefetch Buffer. A hit is counted by the serving stage's
// cache and emits its hit event; a full miss emits the miss event and returns
// false — the caller then resolves via Resolve.
func (c *Chain) Lookup(e *sim.Engine, rq Request) bool {
	if c.devtlb != nil && c.devtlb.Lookup(rq) {
		c.hit(e, rq, c.devtlb.hitEvent)
		return true
	}
	if c.pb != nil && c.pb.Lookup(rq) {
		c.hit(e, rq, prefetchHitEvent)
		return true
	}
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{T: int64(e.Now()), Ev: missEvent,
			SID: uint32(rq.SID), IOVA: obs.Hex(rq.IOVA), Shift: rq.Shift})
	}
	return false
}

// hit traces one device-side probe hit and reports it to the fault hook.
func (c *Chain) hit(e *sim.Engine, rq Request, ev string) {
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{T: int64(e.Now()), Ev: ev,
			SID: uint32(rq.SID), IOVA: obs.Hex(rq.IOVA), Shift: rq.Shift})
	}
	if c.faults != nil {
		c.faults.OnProbeHit(e.Now(), rq.SID, rq.IOVA, rq.Shift)
	}
}

// Resolve sends a demand miss down to the chipset; done.Complete fires
// at the completion time (with the caller's ctx word), after the DevTLB
// was refilled.
func (c *Chain) Resolve(e *sim.Engine, rq Request, done Completer, ctx uint64) {
	c.chipset.Resolve(e, rq, done, ctx)
}

// MaybePrefetch gives the history reader a chance to start a prefetch
// after a demand miss by current.
func (c *Chain) MaybePrefetch(e *sim.Engine, current mem.SID) {
	if c.history != nil {
		c.history.Issue(e, current)
	}
}

// Invalidate broadcasts a driver unmap in datapath order (device side
// first, then the chipset — one invalidation command).
func (c *Chain) Invalidate(sid mem.SID, iova uint64, shift uint8) {
	if c.devtlb != nil {
		c.devtlb.Invalidate(sid, iova, shift)
	}
	if c.pb != nil {
		c.pb.Invalidate(sid, iova, shift)
	}
	if c.chipset != nil {
		c.chipset.Invalidate(sid, iova, shift)
	}
}

// InvalidateSID drops every stage's cached state for one tenant (SID
// teardown / domain-wide invalidation), device side first, and returns
// how many cached objects were dropped across the chain.
func (c *Chain) InvalidateSID(sid mem.SID) int {
	n := 0
	if c.devtlb != nil {
		n += c.devtlb.InvalidateSID(sid)
	}
	if c.pb != nil {
		n += c.pb.InvalidateSID(sid)
	}
	if c.chipset != nil {
		n += c.chipset.InvalidateSID(sid)
	}
	return n
}

// FlushAll empties every stage's cached translations (a broadcast
// invalidation command) and returns how many entries were dropped.
func (c *Chain) FlushAll() int {
	n := 0
	if c.devtlb != nil {
		n += c.devtlb.FlushAll()
	}
	if c.pb != nil {
		n += c.pb.FlushAll()
	}
	if c.chipset != nil {
		n += c.chipset.FlushAll()
	}
	return n
}

// Register publishes every stage's metrics under its stage name.
func (c *Chain) Register(r *obs.Registry) {
	for _, st := range c.stages {
		st.Register(r, st.Name())
	}
}

// Stages returns the composed stages in datapath order.
func (c *Chain) Stages() []Stage { return c.stages }

// WalkersBusy returns how many chipset walkers are currently held.
func (c *Chain) WalkersBusy() int { return c.pool.Busy() }

// WalkQueue returns how many translations wait for a walker.
func (c *Chain) WalkQueue() int { return c.pool.Queued() }

// PTBInUse returns the admission stage's occupied slots (0 if absent).
func (c *Chain) PTBInUse() int {
	if c.ptb == nil {
		return 0
	}
	return c.ptb.PTB().InUse()
}

// PTBStats returns the admission stage's counters (zero if absent).
func (c *Chain) PTBStats() device.PTBStats {
	if c.ptb == nil {
		return device.PTBStats{}
	}
	return c.ptb.PTB().Stats()
}

// DevTLBStats returns the DevTLB's traffic (zero if absent).
func (c *Chain) DevTLBStats() tlb.Stats {
	if c.devtlb == nil {
		return tlb.Stats{}
	}
	return c.devtlb.Cache().Stats()
}

// PrefetchStats returns the prefetch unit's counters (zero if absent).
func (c *Chain) PrefetchStats() device.PrefetchStats {
	if c.pb == nil {
		return device.PrefetchStats{}
	}
	return c.pb.Unit().Stats()
}

// IOMMUStats returns the chipset's counters (zero if absent).
func (c *Chain) IOMMUStats() iommu.Stats {
	if c.chipset == nil {
		return iommu.Stats{}
	}
	return c.chipset.IOMMU().Stats()
}

// Describe renders the composed datapath, one numbered line per stage.
func (c *Chain) Describe() string {
	if len(c.stages) == 0 {
		return "translation off: native path, every packet completes in one TLB-hit latency\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "translation datapath (%d stages):\n", len(c.stages))
	for i, st := range c.stages {
		fmt.Fprintf(&b, "  %d. %-16s %s\n", i+1, st.Name(), st.Describe())
	}
	return b.String()
}

// RejectN accounts n admission attempts known to fail — link slots the
// drop-retry loop skips while nothing can free a slot — in one step (a
// no-op without an admission stage).
func (c *Chain) RejectN(n uint64) { c.ptb.RejectN(n) }
