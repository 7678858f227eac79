package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hypertrio/internal/fault"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// System is one instantiated simulation: a configuration bound to a
// hyper-tenant trace with per-tenant page tables built and ready to
// walk. The translation datapath itself lives in the chain
// (internal/pipeline); System owns the link model (arrival slots, drop
// and retry), the packet-level accounting, and the observability wiring.
type System struct {
	cfg  Config
	src  trace.Source // the packet source the run consumes
	meta trace.Meta

	engine *sim.Engine
	dt     sim.Duration // nominal packet inter-arrival gap
	// shaper, when non-nil, stretches the inter-arrival gap over
	// simulated time (scenario load envelopes); nextGap is the only
	// consumer, so a nil shaper keeps the constant-load fast path.
	shaper ArrivalShaper

	host    *mem.Space
	tenants *mem.TenantTables
	chain   *pipeline.Chain

	// injector applies the configured fault plan (nil without one; every
	// consultation in the run path is behind that nil check).
	injector *fault.Injector

	// Pull-model packet state: cur holds the packet currently offered to
	// the link (pulled from src once, then retried across drops until
	// accepted); consumed counts accepted packets.
	cur          workload.Packet
	curValid     bool
	srcDone      bool
	consumed     int
	unmapApplied bool
	firstAttempt sim.Time // when the current packet first hit the link
	haveAttempt  bool

	// Pooled per-packet contexts. Records are recycled through a free
	// list, so the steady-state packet path performs no allocation; the
	// slab's high-water mark is the maximum number of packets
	// simultaneously in flight.
	pkts     []packetCtx
	freePkts []uint32

	// Packet-level counts. The registry (see Registry) reads these for
	// export and result copies them, so there is no second accounting
	// path to drift out of sync. Per-stage counts live in the chain's
	// stages.
	packets        uint64
	drops          uint64
	bytes          uint64
	requests       uint64
	missLatencySum uint64        // picoseconds
	missCount      uint64        // chipset completions
	missHist       obs.Histogram // chipset round-trip latency, ps
	lastCompletion sim.Time
	// tenantLat is indexed by SID (1..Tenants; slot 0 unused): tenant IDs
	// are dense by construction, so a slice replaces the former map and
	// the per-completion update is one index, no hashing, no allocation.
	tenantLat []tenantLatency
	// tenantDrops attributes drops to the tenant whose packet lost the
	// slot — allocated only for class-partitioned populations (scenario
	// runs), where per-class drop accounting is part of the result.
	tenantDrops []uint64

	// Observability (all zero when Config.Obs is unset; the simulation's
	// outcome is byte-identical either way).
	otr      *obs.Tracer
	registry *obs.Registry
	sampler  *sampler
}

// tenantLatency aggregates one tenant's packet service times (first
// arrival attempt to completion), the basis of the isolation metrics.
type tenantLatency struct {
	sum   sim.Duration
	count uint64
	worst sim.Duration
}

// Event kinds for System's typed events (payload = kind<<32 | ctx idx).
const (
	evArrival = iota // one packet slot on the I/O link
	evHitDone        // an all-hit (or native) packet's completion time
)

// ErrPlanSID reports a fault-plan event that targets a SID outside the
// trace's tenants 1..Tenants. Per-tenant state is indexed by SID, so
// such a plan is rejected before anything is allocated.
var ErrPlanSID = errors.New("core: fault plan targets a SID outside the trace's tenants")

// NewSystem builds per-tenant page tables for every SID in the trace and
// composes the configured translation datapath. A trace with tenants but
// no packets is legal — an aggressive Scale can round a benchmark down
// to zero packets — and runs to a zeroed Result.
func NewSystem(cfg Config, tr *trace.Trace) (*System, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: empty trace")
	}
	return NewSystemSource(cfg, tr.Source())
}

// NewSystemSource is NewSystem over any packet Source — a materialized
// trace adapter or an online stream. Online sources keep the run's
// memory O(tenants): the model pulls one packet at a time and never sees
// the sequence's length up front. The one exception is an Oracle
// (Belady) DevTLB, whose replacement decisions look into the future:
// NewSystemSource reads the source's keys once and rewinds it.
func NewSystemSource(cfg Config, src trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil packet source")
	}
	meta := src.Meta()
	if meta.Tenants <= 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if cfg.Fault != nil {
		for i, ev := range cfg.Fault.Events {
			if uint64(ev.SID) > uint64(meta.Tenants) {
				return nil, fmt.Errorf("%w: event %d (%s) targets SID %d, trace has %d tenants",
					ErrPlanSID, i, ev.Kind, ev.SID, meta.Tenants)
			}
		}
	}
	s := &System{
		cfg:       cfg,
		src:       src,
		meta:      meta,
		dt:        cfg.Params.Interarrival(),
		shaper:    cfg.Shaper,
		host:      mem.NewSpace("host", 0x1_0000_0000, 0),
		tenantLat: make([]tenantLatency, meta.Tenants+1),
	}
	if len(meta.Classes) > 0 {
		s.tenantDrops = make([]uint64, meta.Tenants+1)
	}
	s.engine = sim.NewEngine()
	// The tenant population is a sequence of classes over contiguous SID
	// ranges; a classic single-profile trace is the one-class case, so
	// both shapes share the build loop below (and the one-class case
	// allocates host frames in exactly the order it always has — the
	// byte-identity the golden suite pins).
	population := meta.Classes
	if len(population) == 0 {
		population = []trace.TenantClass{{Profile: meta.Profile, Tenants: meta.Tenants}}
	} else {
		n := 0
		for _, cl := range population {
			n += cl.Tenants
		}
		if n != meta.Tenants {
			return nil, fmt.Errorf("core: class tenant counts sum to %d, trace has %d tenants", n, meta.Tenants)
		}
		for i, cl := range population {
			if err := cl.Profile.Validate(); err != nil {
				return nil, fmt.Errorf("core: class %d (%s): %w", i, cl.Name, err)
			}
		}
	}
	levels := cfg.PageTableLevels
	if levels == 0 {
		levels = mem.Levels
	}
	tenants := mem.NewTenantTables(mem.SID(meta.Tenants))
	// Every tenant of a class runs the same guest image, so tenant page
	// tables are structurally identical up to the ring-window slot the
	// SID maps to (RingSlots congruence classes). Simulation outcomes
	// depend only on walk shape and (SID, IOVA) cache keys — never on
	// which physical frames back a walk — so all tenants of one
	// congruence class share a single template table, keeping simulated
	// memory O(classes x RingSlots) at any tenant count. A fault plan's
	// Remap rewrites a template's leaf in place, keeping its page size:
	// every sharer then walks to the new frame with the same accesses.
	lo := 1
	for ci := range population {
		cl := &population[ci]
		slots := workload.RingSlots
		if cl.Tenants < slots {
			slots = cl.Tenants
		}
		templates := make([]*mem.NestedTable, slots)
		for c := 0; c < slots; c++ {
			as, err := workload.BuildAddressSpaceLevels(cl.Profile, mem.SID(lo+c), s.host, nil, levels)
			if err != nil {
				return nil, fmt.Errorf("core: building tenant template %d: %w", lo+c, err)
			}
			templates[c] = as.Nested
		}
		for i := lo; i < lo+cl.Tenants; i++ {
			tenants.Set(mem.SID(i), templates[(i-lo)%slots])
		}
		lo += cl.Tenants
	}
	s.tenants = tenants
	env := pipeline.Env{
		Lat: pipeline.Latencies{
			PCIeOneWay:   cfg.Params.PCIeOneWay,
			DRAMLatency:  cfg.Params.DRAMLatency,
			TLBHit:       cfg.Params.TLBHit,
			Interarrival: s.dt,
		},
		Tenants: tenants,
	}
	// Validate admits the Oracle policy on the DevTLB alone.
	if !cfg.TranslationOff && cfg.DevTLB.Sets > 0 && cfg.DevTLB.Policy == tlb.Oracle {
		keys, err := futureKeys(src)
		if err != nil {
			return nil, fmt.Errorf("core: the Oracle policy's future: %w", err)
		}
		env.OracleKeys = keys
	}
	if o := cfg.Obs; o != nil {
		s.otr = o.Tracer
		env.Tracer = o.Tracer
		if o.EngineEvents && o.Tracer != nil {
			s.engine.SetProbe(obs.EngineProbe{T: o.Tracer})
		}
	}
	if cfg.Fault != nil {
		inj, err := fault.NewInjector(cfg.Fault, s, s.otr)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.injector = inj
		env.Faults = inj
	}
	s.chain = pipeline.New(env, cfg.datapath())
	if o := cfg.Obs; o != nil && o.SampleEvery > 0 {
		s.sampler = newSampler(o.SampleEvery, &s.bytes, s.chain, cfg.IOMMUWalkers)
	}
	return s, nil
}

// Chain returns the composed translation datapath (for describe output
// and tests; the simulation drives it internally).
func (s *System) Chain() *pipeline.Chain { return s.chain }

// Registry returns the system's metrics registry, building it on first
// use: every stage's counts and occupancy gauges published under
// stable dotted names (core.*, devtlb.*, ptb.*, prefetch.*, iommu.*).
// The registry reads the counts the model keeps anyway, so calling it
// costs nothing on the simulation path.
func (s *System) Registry() *obs.Registry {
	if s.registry == nil {
		s.registry = obs.NewRegistry()
		s.register(s.registry)
	}
	return s.registry
}

func (s *System) register(r *obs.Registry) {
	r.Counter("core.packets", func() uint64 { return s.packets })
	r.Counter("core.drops", func() uint64 { return s.drops })
	r.Counter("core.bytes", func() uint64 { return s.bytes })
	r.Counter("core.requests", func() uint64 { return s.requests })
	r.Counter("core.devtlb_served", func() uint64 { return s.chain.DevTLBStats().Hits })
	r.Counter("core.prefetch_served", func() uint64 { return s.chain.PrefetchStats().Served })
	r.Counter("core.miss_latency_ps", func() uint64 { return s.missLatencySum })
	r.Counter("core.misses", func() uint64 { return s.missCount })
	r.Histogram("core.miss_latency", &s.missHist)
	r.Gauge("core.walkers_busy", func() float64 { return float64(s.chain.WalkersBusy()) })
	r.Gauge("core.walk_queue", func() float64 { return float64(s.chain.WalkQueue()) })
	s.chain.Register(r)
	if s.injector != nil {
		s.injector.Register(r, "fault")
	}
}

// oracleFlattens counts futureKeys invocations across all Systems.
// Tests read it to assert the oracle preprocessing stays lazy: building
// or running a non-Oracle configuration must never read the future.
var oracleFlattens atomic.Uint64

// futureKeys produces the DevTLB's ideal lookup sequence for Belady
// replacement: every packet is eventually accepted exactly once, so the
// DevTLB observes the source's packets in order. It counts the packets,
// failing with trace.ErrTooLarge past trace.MaxPackets before anything
// is allocated, then reads their keys, rewinding the source after each
// pass (sources are deterministic, so the run replays the identical
// sequence).
func futureKeys(src trace.Source) ([]tlb.Key, error) {
	oracleFlattens.Add(1)
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		if n++; n > trace.MaxPackets {
			return nil, fmt.Errorf("%w: the stream runs past the cap of %d packets", trace.ErrTooLarge, trace.MaxPackets)
		}
	}
	src.Reset()
	keys := make([]tlb.Key, 0, n*workload.RequestsPerPacket)
	for p, ok := src.Next(); ok; p, ok = src.Next() {
		keys = append(keys,
			iommu.PageKey(p.SID, p.Ring, workload.PageShiftOf(p.Ring)),
			iommu.PageKey(p.SID, p.Data, workload.PageShiftOf(p.Data)),
			iommu.PageKey(p.SID, p.Mailbox, workload.PageShiftOf(p.Mailbox)),
		)
	}
	src.Reset()
	return keys, nil
}

// nextGap returns the gap to the next link slot: the nominal
// inter-arrival time, stretched by the configured load envelope when
// one is present. The gap is floored at one picosecond so a hostile
// shaper can never wedge the event loop at zero-time self-scheduling.
func (s *System) nextGap(now sim.Time) sim.Duration {
	if s.shaper == nil {
		return s.dt
	}
	g := s.shaper.Gap(s.dt, now)
	if g < 1 {
		g = 1
	}
	return g
}

// start primes the engine with the first link slot and the sampler tick
// without draining it. Run uses it; white-box tests call it and step the
// engine manually.
func (s *System) start() {
	// The first slot lands one inter-arrival gap in, so that N packets
	// occupy N link slots and measured bandwidth can never exceed the
	// offered rate by a fencepost.
	s.engine.ScheduleEvent(s.nextGap(0), s, evArrival<<32)
	if s.sampler != nil {
		s.sampler.start(s.engine)
	}
	if s.injector != nil {
		s.injector.Start(s.engine)
	}
}

// Run replays the whole trace and returns the metrics. It may be called
// once per System. A zero-packet trace drains immediately and reports a
// zeroed Result (no NaN rates, no division by the empty run).
func (s *System) Run() (Result, error) {
	if s.engine.Fired() > 0 {
		return Result{}, fmt.Errorf("core: System.Run called twice")
	}
	s.start()
	s.engine.Run()
	if s.curValid || !s.srcDone {
		return Result{}, fmt.Errorf("core: simulation drained with the packet stream unconsumed (%d packets accepted)", s.consumed)
	}
	if s.sampler != nil {
		// Close the final partial window so short runs still get a point.
		s.sampler.flush(s.engine.Now())
	}
	if s.injector != nil {
		if err := s.injector.Err(); err != nil {
			return Result{}, err
		}
	}
	res := s.result()
	if err := s.checkConservation(res); err != nil {
		return Result{}, err
	}
	return res, nil
}

func packetRequests(p workload.Packet) [workload.RequestsPerPacket]pipeline.Request {
	return [workload.RequestsPerPacket]pipeline.Request{
		{SID: p.SID, IOVA: p.Ring, Shift: workload.PageShiftOf(p.Ring)},
		{SID: p.SID, IOVA: p.Data, Shift: workload.PageShiftOf(p.Data)},
		{SID: p.SID, IOVA: p.Mailbox, Shift: workload.PageShiftOf(p.Mailbox)},
	}
}

// HandleEvent dispatches System's typed events by kind tag.
func (s *System) HandleEvent(e *sim.Engine, now sim.Time, payload uint64) {
	idx := uint32(payload)
	switch payload >> 32 {
	case evArrival:
		s.arrival(e, now)
	case evHitDone:
		ctx := &s.pkts[idx]
		sid, started := ctx.sid, ctx.started
		s.releasePkt(idx)
		s.finishPacket(now)
		s.recordTenantLatency(sid, now, now.Sub(started))
	}
}

// arrival models one packet slot on the I/O link. The chain skips the
// stages the configuration leaves out — an absent stage admits, misses
// or does nothing — so this path never branches on them.
func (s *System) arrival(e *sim.Engine, now sim.Time) {
	if !s.curValid {
		if s.srcDone {
			return // source consumed; in-flight work drains the engine
		}
		pkt, ok := s.src.Next()
		if !ok {
			s.srcDone = true
			return
		}
		s.cur, s.curValid = pkt, true
	}
	pkt := s.cur
	if s.otr != nil {
		// A slot offered to a packet whose earlier attempt was dropped is
		// a retry; haveAttempt still holds from that first attempt.
		ev := "arrival"
		if s.haveAttempt {
			ev = "retry"
		}
		s.otr.Emit(obs.Event{T: int64(now), Ev: ev, SID: uint32(pkt.SID)})
	}
	if !s.haveAttempt {
		s.firstAttempt, s.haveAttempt = now, true
	}

	// Driver unmaps are tied to the packet's first arrival attempt:
	// the guest recycled the page whether or not the device drops.
	if pkt.UnmapIOVA != 0 && !s.unmapApplied {
		s.chain.Invalidate(pkt.SID, pkt.UnmapIOVA, pkt.UnmapShift)
		s.unmapApplied = true
	}

	if s.cfg.TranslationOff {
		s.acceptNative(e, now, pkt)
		e.ScheduleEvent(s.nextGap(now), s, evArrival<<32)
		return
	}

	// The device allocates the packet's admission slot before
	// translating; without a free entry the packet is dropped and the
	// link slot is lost (the source retries at the next arrival time,
	// §IV-C).
	if !s.chain.Admit() {
		s.drop(e, now, pkt.SID)
		return
	}
	s.curValid = false
	s.consumed++
	s.unmapApplied = false
	started := s.firstAttempt
	s.haveAttempt = false
	s.chain.Observe(pkt.SID)

	idx := s.allocPkt()
	ctx := &s.pkts[idx]
	ctx.sid, ctx.started = pkt.SID, started
	var misses [workload.RequestsPerPacket]pipeline.Request
	nMiss := 0
	for _, rq := range packetRequests(pkt) {
		s.requests++
		if s.chain.Lookup(e, rq) {
			continue
		}
		misses[nMiss] = rq
		nMiss++
	}

	if nMiss == 0 {
		e.ScheduleEvent(s.cfg.Params.TLBHit, s, evHitDone<<32|uint64(idx))
	} else {
		ctx.outstanding = nMiss
		if s.cfg.SerialRequests {
			copy(ctx.queue[:], misses[:nMiss])
			ctx.qlen = uint8(nMiss)
			ctx.qhead = 1
			s.startMiss(e, misses[0], idx)
		} else {
			for _, rq := range misses[:nMiss] {
				s.startMiss(e, rq, idx)
			}
		}
		s.chain.MaybePrefetch(e, pkt.SID)
	}
	e.ScheduleEvent(s.nextGap(now), s, evArrival<<32)
}

func (s *System) acceptNative(e *sim.Engine, now sim.Time, pkt workload.Packet) {
	s.curValid = false
	s.consumed++
	s.unmapApplied = false
	s.haveAttempt = false
	s.requests += workload.RequestsPerPacket
	idx := s.allocPkt()
	ctx := &s.pkts[idx]
	ctx.sid, ctx.started = pkt.SID, now
	e.ScheduleEvent(s.cfg.Params.TLBHit, s, evHitDone<<32|uint64(idx))
}

func (s *System) finishPacket(now sim.Time) {
	s.packets++
	s.bytes += uint64(s.cfg.Params.PacketBytes)
	s.chain.ReleaseSlot()
	if now > s.lastCompletion {
		s.lastCompletion = now
	}
}

// packetCtx counts a packet's in-flight translations; the packet (and
// its admission slot) completes when the counter drains. In serial mode
// the not-yet-issued translations wait in queue — a fixed array, since a
// packet can never queue more than its own request count. issued is when
// the packet's in-flight resolve left the device (serial mode reissues
// it per translation; parallel mode shares one issue time).
type packetCtx struct {
	outstanding int
	queue       [workload.RequestsPerPacket]pipeline.Request
	qhead, qlen uint8
	sid         mem.SID
	started     sim.Time
	issued      sim.Time
}

// allocPkt takes a zeroed packet context from the pool, growing the slab
// only when every record is in flight.
func (s *System) allocPkt() uint32 {
	if n := len(s.freePkts); n > 0 {
		idx := s.freePkts[n-1]
		s.freePkts = s.freePkts[:n-1]
		s.pkts[idx] = packetCtx{}
		return idx
	}
	s.pkts = append(s.pkts, packetCtx{})
	return uint32(len(s.pkts) - 1)
}

func (s *System) releasePkt(idx uint32) { s.freePkts = append(s.freePkts, idx) }

// startMiss sends one translation down the chain to the chipset; the chain
// calls s.Complete with the context index at the completion time.
func (s *System) startMiss(e *sim.Engine, rq pipeline.Request, idx uint32) {
	s.pkts[idx].issued = e.Now()
	s.chain.Resolve(e, rq, s, uint64(idx))
}

// Complete receives one resolved translation (the pipeline.Completer
// face of System) and folds it into the packet's context and the
// miss-latency cells.
func (s *System) Complete(e *sim.Engine, done sim.Time, ctxWord uint64) {
	idx := uint32(ctxWord)
	ctx := &s.pkts[idx]
	d := done.Sub(ctx.issued)
	s.missLatencySum += uint64(d)
	s.missCount++
	s.missHist.Observe(uint64(d))
	ctx.outstanding--
	if ctx.qhead < ctx.qlen {
		next := ctx.queue[ctx.qhead]
		ctx.qhead++
		s.startMiss(e, next, idx)
	} else if ctx.outstanding == 0 {
		sid, started := ctx.sid, ctx.started
		s.releasePkt(idx)
		s.finishPacket(done)
		s.recordTenantLatency(sid, done, done.Sub(started))
	}
}

// recordTenantLatency folds one packet's service time (completing at
// done) into its tenant's aggregate, and is therefore also the packet
// completion trace point.
func (s *System) recordTenantLatency(sid mem.SID, done sim.Time, d sim.Duration) {
	if s.otr != nil {
		s.otr.Emit(obs.Event{T: int64(done), Ev: "complete", SID: uint32(sid), DurPs: int64(d)})
	}
	tl := &s.tenantLat[sid]
	tl.sum += d
	tl.count++
	if d > tl.worst {
		tl.worst = d
	}
}

// drop accounts the link slot at now, whose Admit failed, and schedules
// the packet's next slot. It also fast-forwards the blocked link: only
// an event can free an admission slot, so every slot before the
// engine's earliest pending event would fail Admit again and change
// nothing else. Those slots are counted as drops here, with their
// retry/drop trace lines at their own times, and the next slot
// scheduled is the first at or after that event. Scheduling it now
// rather than from the slot before it keeps same-picosecond firing
// order: nothing fires or is scheduled in between, so its sequence
// number ranks the same against every event it ties with. Traced runs,
// engine probe included, take this same path.
func (s *System) drop(e *sim.Engine, now sim.Time, sid mem.SID) {
	if s.otr != nil {
		s.otr.Emit(obs.Event{T: int64(now), Ev: "drop", SID: uint32(sid)})
	}
	next, n := now.Add(s.nextGap(now)), uint64(1)
	until, ok := e.NextAt()
	for ; ok && next < until; next = next.Add(s.nextGap(next)) {
		if s.otr != nil {
			s.otr.Emit(obs.Event{T: int64(next), Ev: "retry", SID: uint32(sid)})
			s.otr.Emit(obs.Event{T: int64(next), Ev: "drop", SID: uint32(sid)})
		}
		n++
	}
	s.chain.RejectN(n - 1)
	s.drops += n
	if s.tenantDrops != nil {
		s.tenantDrops[sid] += n
	}
	e.ScheduleEvent(next.Sub(now), s, evArrival<<32)
}
