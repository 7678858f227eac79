package pipeline

import (
	"fmt"

	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/workload"
)

// AdmissionStage wraps the Pending Translation Buffer as the chain's
// admission: a packet allocates its in-flight translation context here or
// is dropped and retried by the link model.
type AdmissionStage struct {
	ptb *device.PTB
}

func (st *AdmissionStage) Name() string                       { return "ptb" }
func (st *AdmissionStage) Register(r *obs.Registry, p string) { st.ptb.Register(r, p) }

// Admit takes one slot, reporting whether one was available. A nil
// stage (a chain without admission) admits everything.
func (st *AdmissionStage) Admit() bool { return st == nil || st.ptb.Alloc() }

// Release frees the slot taken by Admit (a no-op on a nil stage).
func (st *AdmissionStage) Release() {
	if st != nil {
		st.ptb.Release()
	}
}

// PTB exposes the underlying buffer for occupancy sampling and stats.
func (st *AdmissionStage) PTB() *device.PTB { return st.ptb }

func (st *AdmissionStage) Describe() string {
	return fmt.Sprintf("admission: %d pending-translation slots (drop + retry when full)",
		st.ptb.Capacity())
}

// CacheStage wraps a tlb.Cache as the DevTLB, the first device-side
// probe level. Its name (default "devtlb") prefixes its metrics and its
// hit event.
type CacheStage struct {
	name     string
	hitEvent string
	cache    *tlb.Cache
}

// newCacheStage builds the DevTLB; a Belady (Oracle) policy is handed
// the future access sequence when oracleKeys holds one.
func newCacheStage(cfg tlb.Config, oracleKeys []tlb.Key) *CacheStage {
	if cfg.Name == "" {
		cfg.Name = "devtlb"
	}
	cache := tlb.New(cfg)
	if cfg.Policy == tlb.Oracle && oracleKeys != nil {
		cache.SetFuture(tlb.NewFuture(oracleKeys))
	}
	return &CacheStage{name: cfg.Name, hitEvent: cfg.Name + "_hit", cache: cache}
}

func (st *CacheStage) Name() string { return st.name }

func (st *CacheStage) Lookup(rq Request) bool {
	_, ok := st.cache.Lookup(rq.Key())
	return ok
}

func (st *CacheStage) Fill(rq Request, hpaBase uint64) {
	st.cache.Insert(tlb.Entry{Key: rq.Key(), Value: hpaBase, PageShift: rq.Shift})
}

func (st *CacheStage) Invalidate(sid mem.SID, iova uint64, shift uint8) {
	st.cache.Invalidate(iommu.PageKey(sid, iova, shift))
}

func (st *CacheStage) InvalidateSID(sid mem.SID) int { return st.cache.InvalidateSID(uint32(sid)) }
func (st *CacheStage) FlushAll() int                 { return st.cache.Flush() }

func (st *CacheStage) Register(r *obs.Registry, p string) { st.cache.Register(r, p) }

// Cache exposes the underlying structure for stats and tests.
func (st *CacheStage) Cache() *tlb.Cache { return st.cache }

func (st *CacheStage) Describe() string {
	cfg := st.cache.Config()
	return fmt.Sprintf("cache: %d sets x %d ways (%d entries), %s replacement, %s indexing",
		cfg.Sets, cfg.Ways, cfg.Entries(), cfg.Policy, cfg.Index)
}

// PrefetchBufferStage wraps the Prefetch Unit's buffer as a device-side
// probe level. Demand completions do not fill it — only prefetch
// completions install entries, via the history reader.
type PrefetchBufferStage struct {
	pu *device.PrefetchUnit
}

func (st *PrefetchBufferStage) Name() string { return "prefetch" }

func (st *PrefetchBufferStage) Lookup(rq Request) bool {
	_, ok := st.pu.Lookup(rq.Key())
	return ok
}

func (st *PrefetchBufferStage) Invalidate(sid mem.SID, iova uint64, shift uint8) {
	st.pu.Invalidate(sid, iova, shift)
}

func (st *PrefetchBufferStage) InvalidateSID(sid mem.SID) int { return st.pu.InvalidateSID(sid) }
func (st *PrefetchBufferStage) FlushAll() int                 { return st.pu.FlushAll() }

func (st *PrefetchBufferStage) Register(r *obs.Registry, p string) { st.pu.Register(r, p) }

// Unit exposes the prefetch unit for stats and the history reader.
func (st *PrefetchBufferStage) Unit() *device.PrefetchUnit { return st.pu }

func (st *PrefetchBufferStage) Describe() string {
	cfg := st.pu.Config()
	adaptive := "fixed"
	if cfg.AdaptiveHistory {
		adaptive = "adaptive"
	}
	return fmt.Sprintf("prefetch buffer: %d entries (fully associative, LRU), degree %d, %s history (len %d)",
		cfg.BufferEntries, cfg.Degree, adaptive, cfg.HistoryLen)
}

// ChipsetStage resolves demand misses: it carries a miss over PCIe to
// the chipset, claims a walker, runs the translation (context cache,
// optional IOTLB, page-walk caches, nested walk), charges the memory
// latency, refills the DevTLB and completes back over PCIe.
//
// The whole resolve path is closure-free: each in-flight miss lives in
// a pooled chipsetWalk record, and the stage schedules typed events
// against itself with the record's index (plus an event-kind tag) in
// the payload word. Steady-state resolution allocates nothing.
type ChipsetStage struct {
	mmu    *iommu.IOMMU
	pool   *WalkerPool
	lat    Latencies
	tracer *obs.Tracer
	faults FaultHook   // nil in every fault-free run
	devtlb *CacheStage // refilled by demand completions; nil without one

	walks []chipsetWalk // pooled in-flight miss records
	free  []uint32
}

// chipsetWalk is one in-flight demand miss at the chipset.
type chipsetWalk struct {
	rq      Request
	done    Completer
	ctx     uint64 // the caller's context word, threaded through
	walk    sim.Duration
	hpaBase uint64
	attempt uint8 // walk attempts faulted so far (walker-fault retries)
}

// Event kinds for the chipset's typed events, stored in payload bits
// 32+; the low 32 bits carry the chipsetWalk index.
const (
	ckArrive   uint64 = iota // PCIe trip done: claim a walker
	ckWalkEnd                // memory accesses done: release the walker
	ckComplete               // return PCIe trip done: refill and complete
	ckRetry                  // walker-fault backoff elapsed: re-attempt the walk
)

func (st *ChipsetStage) alloc() uint32 {
	if n := len(st.free); n > 0 {
		idx := st.free[n-1]
		st.free = st.free[:n-1]
		return idx
	}
	st.walks = append(st.walks, chipsetWalk{})
	return uint32(len(st.walks) - 1)
}

func (st *ChipsetStage) release(idx uint32) {
	st.walks[idx] = chipsetWalk{} // drop the Completer reference
	st.free = append(st.free, idx)
}

func (st *ChipsetStage) Name() string { return "iommu" }

func (st *ChipsetStage) Invalidate(sid mem.SID, iova uint64, shift uint8) {
	st.mmu.Invalidate(sid, iova, shift)
}

func (st *ChipsetStage) InvalidateSID(sid mem.SID) int { return st.mmu.InvalidateSID(sid) }
func (st *ChipsetStage) FlushAll() int                 { return st.mmu.FlushAll() }

func (st *ChipsetStage) Register(r *obs.Registry, p string) { st.mmu.Register(r, p) }

// IOMMU exposes the chipset model for stats and the history reader.
func (st *ChipsetStage) IOMMU() *iommu.IOMMU { return st.mmu }

// Resolve starts one demand miss on its PCIe trip to the chipset.
func (st *ChipsetStage) Resolve(e *sim.Engine, rq Request, done Completer, ctx uint64) {
	idx := st.alloc()
	w := &st.walks[idx]
	w.rq, w.done, w.ctx = rq, done, ctx
	e.ScheduleEvent(st.lat.TLBHit+st.lat.PCIeOneWay, st, ckArrive<<32|uint64(idx))
}

// HandleEvent dispatches the stage's typed events by kind tag.
func (st *ChipsetStage) HandleEvent(e *sim.Engine, now sim.Time, payload uint64) {
	idx := uint32(payload)
	switch payload >> 32 {
	case ckArrive:
		st.pool.Acquire(e, st, uint64(idx))
	case ckWalkEnd:
		w := &st.walks[idx]
		if st.tracer != nil {
			st.tracer.Emit(obs.Event{T: int64(now), Ev: "walk_end",
				SID: uint32(w.rq.SID), IOVA: obs.Hex(w.rq.IOVA), DurPs: int64(w.walk)})
		}
		st.pool.Release(e)
	case ckComplete:
		w := &st.walks[idx]
		if st.devtlb != nil {
			st.devtlb.Fill(w.rq, w.hpaBase)
		}
		done, ctx := w.done, w.ctx
		st.release(idx)
		done.Complete(e, now, ctx)
	case ckRetry:
		st.runWalk(e, idx)
	}
}

// RunWalk runs the translation once the pool grants a walker.
func (st *ChipsetStage) RunWalk(e *sim.Engine, payload uint64) {
	st.runWalk(e, uint32(payload))
}

// runWalk is one walk attempt for the record at idx: the walker is held;
// a faulted attempt backs off (keeping the walker — the walk context is
// pinned in hardware while the host services the fault) and re-attempts
// via ckRetry; a clean attempt performs the translation.
func (st *ChipsetStage) runWalk(e *sim.Engine, idx uint32) {
	w := &st.walks[idx]
	if st.faults != nil {
		if retryIn, faulted := st.faults.WalkAttempt(e.Now(), w.rq.SID, int(w.attempt)); faulted {
			w.attempt++
			if st.tracer != nil {
				st.tracer.Emit(obs.Event{T: int64(e.Now()), Ev: "fault_retry",
					SID: uint32(w.rq.SID), IOVA: obs.Hex(w.rq.IOVA), Shift: w.rq.Shift,
					N: int(w.attempt), DurPs: int64(retryIn)})
			}
			e.ScheduleEvent(retryIn, st, ckRetry<<32|uint64(idx))
			return
		}
		st.faults.OnWalk(e.Now(), w.rq.SID, w.rq.IOVA, w.rq.Shift)
	}
	res, err := st.mmu.Translate(w.rq.SID, w.rq.IOVA, w.rq.Shift, true)
	if err != nil {
		panic(fmt.Sprintf("pipeline: translate SID %d iova %#x: %v", w.rq.SID, w.rq.IOVA, err))
	}
	walk := sim.Duration(res.MemAccesses) * st.lat.DRAMLatency
	if res.IOTLBHit {
		walk += st.lat.TLBHit
	}
	w.walk = walk
	w.hpaBase = res.HPA &^ (uint64(1)<<w.rq.Shift - 1)
	if st.tracer != nil {
		st.tracer.Emit(obs.Event{T: int64(e.Now()), Ev: "walk_start",
			SID: uint32(w.rq.SID), IOVA: obs.Hex(w.rq.IOVA), Shift: w.rq.Shift, N: res.MemAccesses})
	}
	e.ScheduleEvent(walk, st, ckWalkEnd<<32|uint64(idx))
	e.ScheduleEvent(walk+st.lat.PCIeOneWay, st, ckComplete<<32|uint64(idx))
}

func (st *ChipsetStage) Describe() string {
	c := st.mmu.Config()
	iotlb := "off"
	if c.IOTLB.Sets > 0 {
		iotlb = fmt.Sprintf("%dx%d %s %s", c.IOTLB.Sets, c.IOTLB.Ways, c.IOTLB.Policy, c.IOTLB.Index)
	}
	walkers := "unlimited walkers"
	if n := st.pool.Capacity(); n > 0 {
		walkers = fmt.Sprintf("%d walkers", n)
	}
	return fmt.Sprintf("chipset: context cache %d-entry %s; IOTLB %s; L2 PWC %dx%d %s %s; L3 PWC %dx%d %s %s; %s",
		c.ContextCache.Entries(), c.ContextCache.Policy, iotlb,
		c.L2PWC.Sets, c.L2PWC.Ways, c.L2PWC.Policy, c.L2PWC.Index,
		c.L3PWC.Sets, c.L3PWC.Ways, c.L3PWC.Policy, c.L3PWC.Index, walkers)
}

// HistoryReaderStage is the chipset's IOVA history reader driven by the
// device's SID-predictor: after a demand miss it may claim a walker,
// read the predicted tenant's per-DID history from memory, translate the
// fetched gIOVAs back to back and install them into the Prefetch Buffer.
//
// Like the chipset stage, prefetches are closure-free: each in-flight
// prefetch is a pooled historyPrefetch record whose entry and history
// buffers are reused across prefetches, addressed by index through the
// typed-event payload.
type HistoryReaderStage struct {
	pu     *device.PrefetchUnit
	mmu    *iommu.IOMMU
	pool   *WalkerPool
	lat    Latencies
	tracer *obs.Tracer

	prefs []historyPrefetch // pooled in-flight prefetch records
	free  []uint32
}

// historyPrefetch is one in-flight prefetch of a predicted tenant.
type historyPrefetch struct {
	target    mem.SID
	triggered sim.Time
	recent    []iommu.HistoryEntry // reused scratch: fetched history
	entries   []tlb.Entry          // reused scratch: translated fills
}

// Event kinds for the history reader's typed events (payload bits 32+;
// low 32 bits are the historyPrefetch index).
const (
	hkArrive  uint64 = iota // PCIe trip done: claim a walker
	hkWalkEnd               // history read + walks done: release walker
	hkFill                  // return PCIe trip done: install the fills
)

func (st *HistoryReaderStage) alloc() uint32 {
	if n := len(st.free); n > 0 {
		idx := st.free[n-1]
		st.free = st.free[:n-1]
		return idx
	}
	st.prefs = append(st.prefs, historyPrefetch{})
	return uint32(len(st.prefs) - 1)
}

func (st *HistoryReaderStage) release(idx uint32) {
	p := &st.prefs[idx]
	p.target, p.triggered = 0, 0
	p.recent, p.entries = p.recent[:0], p.entries[:0] // keep the backing arrays
	st.free = append(st.free, idx)
}

func (st *HistoryReaderStage) Name() string { return "history-reader" }

// Register is a no-op: the prefetch unit's metrics (including the
// predictor this stage drives) are published by the PrefetchBufferStage
// under "prefetch", and double registration would panic the registry.
func (st *HistoryReaderStage) Register(*obs.Registry, string) {}

// Observe feeds one accepted packet's SID to the predictor.
func (st *HistoryReaderStage) Observe(sid mem.SID) { st.pu.Predictor().Observe(sid) }

// Issue starts a prefetch of the predicted tenant, if the prefetch unit
// asks for one after a demand miss by current.
func (st *HistoryReaderStage) Issue(e *sim.Engine, current mem.SID) {
	target, ok := st.pu.ShouldPrefetch(current)
	if !ok {
		return
	}
	triggered := e.Now()
	if st.tracer != nil {
		st.tracer.Emit(obs.Event{T: int64(triggered), Ev: "prefetch_issue", SID: uint32(target)})
	}
	idx := st.alloc()
	p := &st.prefs[idx]
	p.target, p.triggered = target, triggered
	e.ScheduleEvent(st.lat.PCIeOneWay, st, hkArrive<<32|uint64(idx))
}

// HandleEvent dispatches the stage's typed events by kind tag.
func (st *HistoryReaderStage) HandleEvent(e *sim.Engine, now sim.Time, payload uint64) {
	idx := uint32(payload)
	switch payload >> 32 {
	case hkArrive:
		// The history reader claims one walker: it reads the per-DID
		// history from memory, then walks the fetched gIOVAs back to back.
		st.pool.Acquire(e, st, uint64(idx))
	case hkWalkEnd:
		st.pool.Release(e)
	case hkFill:
		p := &st.prefs[idx]
		if st.tracer != nil {
			st.tracer.Emit(obs.Event{T: int64(now), Ev: "prefetch_fill",
				SID: uint32(p.target), N: len(p.entries), DurPs: int64(now.Sub(p.triggered))})
		}
		// Report the observed trigger-to-fill latency in requests
		// so the host can retune the history-length register.
		latencyRequests := int(float64(now.Sub(p.triggered)) / float64(st.lat.Interarrival) * workload.RequestsPerPacket)
		st.pu.Complete(p.target, p.entries, latencyRequests)
		st.release(idx)
	}
}

// RunWalk reads the target's history and walks its pages once the pool
// grants a walker.
func (st *HistoryReaderStage) RunWalk(e *sim.Engine, payload uint64) {
	idx := uint32(payload)
	p := &st.prefs[idx]
	p.recent = st.mmu.History().AppendRecent(p.recent[:0], p.target, st.pu.Config().Degree)
	if len(p.recent) == 0 {
		if st.tracer != nil {
			st.tracer.Emit(obs.Event{T: int64(e.Now()), Ev: "prefetch_abort", SID: uint32(p.target)})
		}
		st.pu.Abort(p.target)
		st.pool.Release(e)
		st.release(idx)
		return
	}
	total := st.lat.DRAMLatency // history read
	p.entries = p.entries[:0]
	for _, h := range p.recent {
		res, err := st.mmu.Translate(p.target, h.IOVA, h.PageShift, false)
		if err != nil {
			continue // page was unmapped while the prefetch was in flight
		}
		total += sim.Duration(res.MemAccesses) * st.lat.DRAMLatency
		if res.IOTLBHit {
			total += st.lat.TLBHit
		}
		pageMask := uint64(1)<<h.PageShift - 1
		p.entries = append(p.entries, tlb.Entry{
			Key:       iommu.PageKey(p.target, h.IOVA, h.PageShift),
			Value:     res.HPA &^ pageMask,
			PageShift: h.PageShift,
		})
	}
	e.ScheduleEvent(total, st, hkWalkEnd<<32|uint64(idx))
	e.ScheduleEvent(total+st.lat.PCIeOneWay, st, hkFill<<32|uint64(idx))
}

func (st *HistoryReaderStage) Describe() string {
	return fmt.Sprintf("history reader: degree-%d prefetch of the predicted tenant's recent IOVAs",
		st.pu.Config().Degree)
}

// RejectN counts n admission attempts that fail without changing any
// state (a no-op on a nil stage, which never rejects).
func (st *AdmissionStage) RejectN(n uint64) {
	if st != nil {
		st.ptb.RejectN(n)
	}
}
