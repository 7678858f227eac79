package sim

import (
	"fmt"
	"math/bits"
)

// EventSink receives the engine's events: a model component implements
// HandleEvent once and schedules events against itself with
// ScheduleEvent, threading per-event state through the payload word
// instead of capturing it in a closure. Components that need more than
// 64 bits of state keep it in a pooled record and pass the record's
// index (see internal/core and internal/pipeline).
type EventSink interface {
	HandleEvent(e *Engine, now Time, payload uint64)
}

// eventRec is one event's slab record. Records are recycled through a
// free list, so steady-state scheduling allocates nothing. next chains
// records into their timing-wheel slot's intrusive list (slab index + 1;
// 0 ends the chain).
type eventRec struct {
	at      Time
	seq     uint64 // schedule order, breaks timestamp ties deterministically
	sink    EventSink
	payload uint64
	next    uint32
}

// Probe observes the engine's lifecycle: every event entering the queue
// and firing, with its timestamp and deterministic sequence number.
// Probes must only observe — a probe that mutates model state would
// break the determinism contract. Both hooks are nil-guarded, so an
// engine without a probe pays one predictable branch per operation.
type Probe interface {
	OnSchedule(at Time, seq uint64)
	OnFire(at Time, seq uint64)
}

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots each,
// wheelBits address bits per level. Level l buckets events whose
// timestamps first differ from the cursor in bit l*wheelBits ..
// l*wheelBits+wheelBits-1; the wheel as a whole covers the cursor's
// next 2^48 picoseconds (~281 simulated seconds). Events beyond that
// horizon wait in a small 4-ary overflow heap and migrate into the
// wheel when the cursor gets close.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
	horizonBits = wheelBits * wheelLevels // 48
)

// Engine is a deterministic discrete-event simulator. Events scheduled
// for the same timestamp fire in scheduling order. Engine is not safe for
// concurrent use; the whole model is single-threaded by design, which is
// also what makes runs reproducible.
//
// Internally the queue is a hierarchical timing wheel over a slab of
// event records recycled through a free list, so ScheduleEvent/Step
// allocate nothing in steady state (pinned by TestScheduleStepZeroAllocs).
// Scheduling hashes the timestamp into a wheel slot in O(1); firing
// detaches the lowest occupied slot, fires its earliest record and
// cascades the rest a level or more down, amortized O(1) per event.
// Events at exactly the current time sit in a small "ready" heap ordered
// by (at, seq), which keeps the exact total fire order of a single
// (at, seq) heap.
type Engine struct {
	now     Time
	slab    []eventRec
	free    []uint32 // recycled slab indices
	nextSeq uint64
	fired   uint64
	probe   Probe

	// Timing-wheel state. The wheel cursor is the clock itself: it only
	// advances on a fire, never on a peek, so a schedule made after a
	// peek may land below the peeked minimum (only >= now is guaranteed).
	slotHead [wheelLevels * wheelSlots]uint32 // intrusive lists (slab index + 1)
	occ      [wheelLevels]uint64              // per-level slot occupancy bitmaps
	ready    []uint32                         // 4-ary heap of events at exactly now
	ovfl     []uint32                         // 4-ary heap of events beyond the horizon
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled: every slab
// record not on the free list is queued.
func (e *Engine) Pending() int { return len(e.slab) - len(e.free) }

// SetProbe attaches an observability probe (nil detaches). The probe
// sees events from the next operation onward.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// ScheduleEvent queues an event: after delay, sink.HandleEvent fires
// with the payload word. A negative delay panics: the model must never
// travel backwards in time. Steady-state scheduling allocates nothing.
func (e *Engine) ScheduleEvent(delay Duration, sink EventSink, payload uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d ps", int64(delay)))
	}
	at, idx := e.now.Add(delay), e.allocRec()
	e.slab[idx] = eventRec{at: at, seq: e.nextSeq, sink: sink, payload: payload}
	e.place(idx, at)
	if e.probe != nil {
		e.probe.OnSchedule(at, e.nextSeq)
	}
	e.nextSeq++
}

// allocRec pops a recycled slab slot or grows the slab by one record.
func (e *Engine) allocRec() uint32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slab = append(e.slab, eventRec{})
	return uint32(len(e.slab) - 1)
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	idx, ok := uint32(0), len(e.ready) > 0
	if ok {
		e.ready, idx = e.heapPopFrom(e.ready)
	} else if idx, ok = e.advance(); !ok {
		return false
	}
	rec := &e.slab[idx]
	seq, sink, payload := rec.seq, rec.sink, rec.payload
	// Recycle before firing (the handler may schedule into this very
	// slot); clearing the reference releases the sink for GC.
	rec.sink = nil
	e.free = append(e.free, idx)
	e.fired++
	if e.probe != nil {
		e.probe.OnFire(e.now, seq)
	}
	sink.HandleEvent(e, e.now, payload)
	return true
}

// Run fires events until the queue drains. It returns the number of
// events executed during this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// --- hierarchical timing wheel ----------------------------------------
//
// Placement invariant: a queued record with time t > now lives at level
// l = (bits.Len64(t^now)-1)/wheelBits, slot (t>>(l*wheelBits)) & wheelMask
// — the level of the highest bit where t diverges from the clock, which
// is the wheel cursor. Every occupied slot at level l is strictly above
// the clock's own slot index at that level, and events at exactly
// t == now sit in the ready heap.
//
// The clock only ever moves to T, the time of the earliest pending event,
// which keeps the invariant cheap to maintain. Every slot the clock
// passes is empty, and so is every level below the one where T first
// diverges from the clock: a record there would order before T. While
// the wheel holds anything, T lies inside the clock's 2^48 ps window and
// every overflow record outside it, so only an empty wheel migrates the
// overflow heap. Advancing therefore only detaches T's own slot and
// cascades its other records toward lower levels (or the ready heap);
// each record re-places at a strictly lower level every time, bounding
// total relocation work per event by the level count.

// place inserts idx into the ready heap, a wheel slot, or the overflow
// heap according to t's distance from the clock. t must be >= now.
func (e *Engine) place(idx uint32, t Time) {
	if t == e.now {
		e.ready = e.heapPushTo(e.ready, idx)
		return
	}
	lvl := (bits.Len64(uint64(t)^uint64(e.now)) - 1) / wheelBits
	if lvl >= wheelLevels {
		e.ovfl = e.heapPushTo(e.ovfl, idx)
		return
	}
	slot := int(uint64(t)>>(uint(lvl)*wheelBits)) & wheelMask
	pos := lvl*wheelSlots + slot
	e.slab[idx].next = e.slotHead[pos]
	e.slotHead[pos] = idx + 1
	e.occ[lvl] |= 1 << uint(slot)
}

// lowestSlot returns the lowest occupied level (wheelLevels if none) and
// the slotHead position of its lowest occupied slot, which holds the
// wheel's earliest records: within one level, lower slot index means
// earlier time, and any occupied lower level precedes any higher one.
func (e *Engine) lowestSlot() (lvl, pos int) {
	for lvl = 0; lvl < wheelLevels; lvl++ {
		if occ := e.occ[lvl]; occ != 0 {
			return lvl, lvl*wheelSlots + bits.TrailingZeros64(occ)
		}
	}
	return wheelLevels, 0
}

// slotMin returns the (at, seq)-least record of the slot list at head
// (slab index + 1). A level-0 slot holds one time but still needs the
// seq scan.
func (e *Engine) slotMin(head uint32) uint32 {
	m := head - 1
	for cur := e.slab[m].next; cur != 0; cur = e.slab[cur-1].next {
		if e.heapLess(cur-1, m) {
			m = cur - 1
		}
	}
	return m
}

// NextAt returns the time of the earliest pending event without firing
// it; ok is false when nothing is pending. The clock does not move, and a
// later schedule below the peeked time still fires first. A handler uses
// it to learn how far the clock may run before anything else can happen
// (see internal/core's drop-retry fast-forward).
func (e *Engine) NextAt() (at Time, ok bool) {
	// Ready events (at exactly now) precede the wheel (> now), which
	// precedes the overflow (beyond the horizon).
	if len(e.ready) > 0 {
		return e.slab[e.ready[0]].at, true
	}
	if lvl, pos := e.lowestSlot(); lvl < wheelLevels {
		return e.slab[e.slotMin(e.slotHead[pos])].at, true
	}
	if len(e.ovfl) > 0 {
		return e.slab[e.ovfl[0]].at, true
	}
	return 0, false
}

// advance is Step with nothing ready: it moves the clock to T, the
// earliest pending time, and returns the record to fire there (ok is
// false when nothing is pending). That record is the lowest occupied
// slot's minimum; the slot's other records re-place against the new
// clock, and a lone record fires with no ready-heap push or pop. An empty
// wheel fires the overflow head and migrates the overflow records inside
// T's window; the heap order keeps the rest beyond it.
func (e *Engine) advance() (idx uint32, ok bool) {
	lvl, pos := e.lowestSlot()
	if lvl == wheelLevels {
		if len(e.ovfl) == 0 {
			return 0, false
		}
		e.ovfl, idx = e.heapPopFrom(e.ovfl)
		e.now = e.slab[idx].at
		for len(e.ovfl) > 0 && (uint64(e.slab[e.ovfl[0]].at)^uint64(e.now))>>horizonBits == 0 {
			var m uint32
			e.ovfl, m = e.heapPopFrom(e.ovfl)
			e.place(m, e.slab[m].at)
		}
		return idx, true
	}
	head := e.slotHead[pos]
	e.slotHead[pos] = 0
	e.occ[lvl] &^= 1 << uint(pos&wheelMask)
	if idx = head - 1; e.slab[idx].next == 0 {
		e.now = e.slab[idx].at
		return idx, true
	}
	idx = e.slotMin(head)
	e.now = e.slab[idx].at
	for cur := head; cur != 0; {
		r := cur - 1
		if cur = e.slab[r].next; r != idx {
			e.place(r, e.slab[r].at)
		}
	}
	return idx, true
}

// --- 4-ary min-heaps over slab indices --------------------------------
//
// The ready bucket (events at exactly the cursor time) and the overflow
// bucket (events beyond the wheel horizon) are small 4-ary heaps.
// Sequence numbers are unique, so the (at, seq) comparator is a total
// order and pop order is exactly the firing order.

const heapArity = 4

func (e *Engine) heapLess(a, b uint32) bool {
	ra, rb := &e.slab[a], &e.slab[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

func (e *Engine) heapPushTo(h []uint32, idx uint32) []uint32 {
	h = append(h, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func (e *Engine) heapPopFrom(h []uint32) ([]uint32, uint32) {
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heapSiftDown(h, 0)
	return h, root
}

func (e *Engine) heapSiftDown(h []uint32, i int) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		m := first
		for c := first + 1; c < min(first+heapArity, n); c++ {
			if e.heapLess(h[c], h[m]) {
				m = c
			}
		}
		if !e.heapLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
