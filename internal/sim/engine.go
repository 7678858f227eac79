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

// recState tracks an event record's lifecycle through the slab.
const (
	recFree uint8 = iota // on the free list
	recQueued
	recCancelled // still queued, skipped and recycled when encountered
)

// eventRec is one event's slab record. Records are recycled through a
// free list, so steady-state scheduling allocates nothing; gen
// distinguishes incarnations of the same slot so a stale EventID from a
// previous occupant can never touch the current one. next chains records
// into their timing-wheel slot's intrusive list (slab index + 1; 0 ends
// the chain).
type eventRec struct {
	at      Time
	seq     uint64 // schedule order, breaks timestamp ties deterministically
	sink    EventSink
	payload uint64
	label   string
	next    uint32
	gen     uint32
	state   uint8
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is invalid and never cancels anything. IDs are
// generation-checked: after the event fires or is cancelled its slab
// slot may be recycled, and the stale ID keeps returning false from
// Cancel instead of touching the slot's next occupant.
type EventID struct {
	slot uint32 // slab index + 1; 0 marks the zero (invalid) EventID
	gen  uint32
}

// Probe observes the engine's lifecycle: every event entering the
// queue, firing, or being cancelled, with its timestamp, deterministic
// sequence number, and optional debug label. Probes must only observe —
// a probe that mutates model state would break the determinism contract.
// All hooks are nil-guarded, so an engine without a probe pays one
// predictable branch per operation.
type Probe interface {
	OnSchedule(at Time, seq uint64, label string)
	OnFire(at Time, seq uint64, label string)
	OnCancel(at Time, seq uint64, label string)
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
// recycled event records: the slab keeps every record in one flat
// allocation and the free list recycles slots, so ScheduleEvent/Step allocate
// nothing in steady state (pinned by TestScheduleStepZeroAllocs).
// Scheduling hashes the timestamp into a wheel slot in O(1); firing
// advances the cursor and cascades at most a handful of records to lower
// levels, amortized O(1) per event because every relocation moves a
// record to a strictly lower level. Events at exactly the cursor time
// sit in a small "ready" heap ordered by (at, seq), which is what
// preserves the exact total fire order of the previous 4-ary-heap
// engine. Cancellation is lazy — a cancelled record stays in its slot,
// is skipped and recycled when the cursor or a peek reaches it.
type Engine struct {
	now     Time
	slab    []eventRec
	free    []uint32 // recycled slab indices
	live    int      // queued, not-cancelled events
	nextSeq uint64
	fired   uint64
	stopped bool
	probe   Probe

	// Timing-wheel state. cur is the wheel cursor; it trails or equals
	// the clock and only advances on a committed fire or a RunUntil
	// deadline, never on a peek, so a schedule made after a peek may land
	// below the peeked minimum (only >= now is guaranteed).
	cur      Time
	slotHead [wheelLevels * wheelSlots]uint32 // intrusive lists (slab index + 1)
	occ      [wheelLevels]uint64              // per-level slot occupancy bitmaps
	ready    []uint32                         // 4-ary heap of events at exactly cur
	ovfl     []uint32                         // 4-ary heap of events beyond the horizon
	scratch  []uint32                         // reused cascade buffer

	// Memoized minimum: findMin scans bitmaps and slot lists once, then
	// repeated peeks (RunUntil peeks before every step) are O(1) until a
	// pop, a cancel of the cached minimum, or a smaller insert.
	peekStamp stamp
	peekValid bool
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled (cancelled
// events leave this count immediately, even though their queue slots are
// recycled lazily).
func (e *Engine) Pending() int { return e.live }

// Stopped reports whether the last Run/RunUntil/RunLimit call ended
// because Stop was called (rather than by draining the queue or hitting
// its bound). RunUntil callers use this to distinguish "clock advanced
// to the deadline" from "halted mid-window".
func (e *Engine) Stopped() bool { return e.stopped }

// SetProbe attaches an observability probe (nil detaches). The probe
// sees events from the next operation onward.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// stamp is an event's ordering key. Events fire in lexicographic
// (at, seq) order: by time, then by schedule order.
type stamp struct {
	at  Time
	seq uint64
}

// less reports whether s orders strictly before o.
func (s stamp) less(o stamp) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// ScheduleEvent queues an event: after delay, sink.HandleEvent fires
// with the payload word. A negative delay panics: the model must never
// travel backwards in time. Steady-state scheduling allocates nothing.
func (e *Engine) ScheduleEvent(delay Duration, sink EventSink, payload uint64) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d ps", int64(delay)))
	}
	return e.scheduleAt(e.now.Add(delay), sink, payload, "")
}

// ScheduleEventLabeled is ScheduleEvent with a debug label attached.
func (e *Engine) ScheduleEventLabeled(delay Duration, label string, sink EventSink, payload uint64) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d ps", int64(delay)))
	}
	return e.scheduleAt(e.now.Add(delay), sink, payload, label)
}

func (e *Engine) scheduleAt(at Time, sink EventSink, payload uint64, label string) EventID {
	idx := e.allocRec()
	rec := &e.slab[idx]
	rec.at = at
	rec.seq = e.nextSeq
	e.nextSeq++
	rec.sink = sink
	rec.payload = payload
	rec.label = label
	rec.state = recQueued
	e.live++
	e.enqueue(idx)
	if e.probe != nil {
		e.probe.OnSchedule(at, rec.seq, label)
	}
	return EventID{slot: idx + 1, gen: rec.gen}
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

// freeRec retires a slab slot: the generation bump invalidates any
// outstanding EventID, and clearing the references releases the sink
// for GC.
func (e *Engine) freeRec(idx uint32) {
	rec := &e.slab[idx]
	rec.gen++
	rec.state = recFree
	rec.sink = nil
	rec.label = ""
	rec.next = 0
	e.free = append(e.free, idx)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or recycled event is a no-op and returns false; in
// particular, an event popped for execution during same-timestamp firing
// (including a handler cancelling itself) has already left the queue and
// cannot be cancelled, and a stale EventID whose slab slot was recycled
// fails the generation check rather than cancelling the new occupant.
func (e *Engine) Cancel(id EventID) bool {
	if id.slot == 0 || int(id.slot) > len(e.slab) {
		return false
	}
	rec := &e.slab[id.slot-1]
	if rec.gen != id.gen || rec.state != recQueued {
		return false
	}
	rec.state = recCancelled
	e.live--
	if e.peekValid && e.peekStamp == (stamp{rec.at, rec.seq}) {
		e.peekValid = false
	}
	if e.probe != nil {
		e.probe.OnCancel(rec.at, rec.seq, rec.label)
	}
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	st, ok := e.findMin()
	if !ok {
		return false
	}
	e.advanceTo(st.at)
	// The minimum now sits in the ready bucket; anything cancelled ahead
	// of it recycles on the way.
	var idx uint32
	for {
		if len(e.ready) == 0 {
			panic("sim: timing wheel lost the minimum event")
		}
		e.ready, idx = e.heapPopFrom(e.ready)
		if e.slab[idx].state == recCancelled {
			e.freeRec(idx)
			continue
		}
		break
	}
	e.peekValid = false
	rec := &e.slab[idx]
	at, seq := rec.at, rec.seq
	sink, payload, label := rec.sink, rec.payload, rec.label
	// Recycle before firing: the handler may schedule into this very
	// slot, which is exactly why EventIDs are generation-checked.
	e.freeRec(idx)
	if at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v (%s)", e.now, at, label))
	}
	e.now = at
	e.fired++
	e.live--
	if e.probe != nil {
		e.probe.OnFire(at, seq, label)
	}
	sink.HandleEvent(e, e.now, payload)
	return true
}

// Run fires events until the queue drains or Stop is called. It returns
// the number of events executed during this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.fired - start
}

// RunUntil fires events with timestamps <= deadline. Events scheduled
// beyond the deadline stay queued. It returns the number of events fired.
//
// Clock-advance semantics: when the window completes normally the clock
// lands exactly on deadline even if no event fired there, so repeated
// RunUntil calls tile time without gaps. When Stop fires mid-window the
// clock stays at the stopping event's time and the remaining in-window
// events stay queued (Stopped reports which case occurred); a later
// RunUntil with the same deadline resumes and finishes the window.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		st, ok := e.findMin()
		if !ok || st.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline && !e.stopped {
		// No live event lies in (cur, deadline], so the cursor may jump
		// straight to the deadline; passed slots hold only cancelled
		// records, which the sweep recycles.
		e.advanceTo(deadline)
		e.now = deadline
	}
	return e.fired - start
}

// RunLimit fires at most n events, returning the number fired. It is a
// guard rail for tests that want to bound runaway models.
func (e *Engine) RunLimit(n uint64) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.fired-start < n && e.Step() {
	}
	return e.fired - start
}

// --- hierarchical timing wheel ----------------------------------------
//
// Placement invariant: a queued record with time t > cur lives at level
// l = (bits.Len64(t^cur)-1)/wheelBits, slot (t>>(l*wheelBits)) & wheelMask
// — the level of the highest bit where t diverges from the cursor. Every
// occupied slot at level l is strictly above the cursor's own slot index
// at that level, and events at exactly t == cur sit in the ready heap.
// The cursor only moves to the time of a committed minimum (Step) or to
// a RunUntil deadline known to precede every live event, which is what
// keeps the invariant cheap to maintain: advancing to T cascades exactly
// the slots the cursor passes, and each live record cascades to a
// strictly lower level every time, bounding total relocation work per
// event by the number of levels.

// enqueue places a filled record into the queue structure appropriate
// for its timestamp and keeps the memoized minimum coherent.
func (e *Engine) enqueue(idx uint32) {
	rec := &e.slab[idx]
	if e.peekValid {
		st := stamp{rec.at, rec.seq}
		if st.less(e.peekStamp) {
			e.peekStamp = st
		}
	}
	e.place(idx, rec.at)
}

// place inserts idx into the ready heap, a wheel slot, or the overflow
// heap according to t's distance from the cursor. t must be >= cur.
func (e *Engine) place(idx uint32, t Time) {
	if t == e.cur {
		e.ready = e.heapPushTo(e.ready, idx)
		return
	}
	d := uint64(t) ^ uint64(e.cur)
	lvl := (bits.Len64(d) - 1) / wheelBits
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

// lowOnes returns a mask of the n lowest bits (n in 1..64).
func lowOnes(n uint) uint64 {
	return ^uint64(0) >> (64 - n)
}

// findMin locates the earliest live event without moving the cursor,
// recycling any cancelled records it encounters, and memoizes the
// result for repeated peeks. The second result is false when the queue
// holds no live events.
func (e *Engine) findMin() (stamp, bool) {
	if e.peekValid {
		return e.peekStamp, true
	}
	// Ready bucket first: it holds events at exactly cur, which precede
	// everything in the wheel (> cur) and the overflow (beyond horizon).
	for len(e.ready) > 0 {
		top := e.ready[0]
		if e.slab[top].state != recCancelled {
			r := &e.slab[top]
			e.peekStamp = stamp{r.at, r.seq}
			e.peekValid = true
			return e.peekStamp, true
		}
		e.ready, _ = e.heapPopFrom(e.ready)
		e.freeRec(top)
	}
	// Wheel levels bottom-up: within one level, lower slot index means
	// earlier time (all of a level's events share the cursor's
	// higher-level window), and any occupied lower level precedes any
	// occupied higher one.
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] == 0 {
			continue
		}
		curSlot := uint(uint64(e.cur)>>(uint(lvl)*wheelBits)) & wheelMask
		mask := e.occ[lvl] &^ lowOnes(curSlot+1)
		for mask != 0 {
			slot := bits.TrailingZeros64(mask)
			if st, ok := e.scanSlot(lvl, slot); ok {
				e.peekStamp = st
				e.peekValid = true
				return st, true
			}
			mask &^= 1 << uint(slot) // slot held only cancelled records
		}
	}
	// Overflow heap last: everything there is beyond the wheel horizon,
	// hence after every wheel event.
	for len(e.ovfl) > 0 {
		top := e.ovfl[0]
		if e.slab[top].state != recCancelled {
			r := &e.slab[top]
			e.peekStamp = stamp{r.at, r.seq}
			e.peekValid = true
			return e.peekStamp, true
		}
		e.ovfl, _ = e.heapPopFrom(e.ovfl)
		e.freeRec(top)
	}
	return stamp{}, false
}

// scanSlot walks one wheel slot's list, unlinking and recycling
// cancelled records, and returns the minimum live stamp. When no live
// record remains the slot empties and its occupancy bit clears.
func (e *Engine) scanSlot(lvl, slot int) (stamp, bool) {
	pos := lvl*wheelSlots + slot
	var best stamp
	found := false
	prev := uint32(0)
	cur := e.slotHead[pos]
	for cur != 0 {
		idx := cur - 1
		rec := &e.slab[idx]
		next := rec.next
		if rec.state == recCancelled {
			if prev == 0 {
				e.slotHead[pos] = next
			} else {
				e.slab[prev-1].next = next
			}
			e.freeRec(idx)
			cur = next
			continue
		}
		st := stamp{rec.at, rec.seq}
		if !found || st.less(best) {
			best = st
			found = true
		}
		prev = cur
		cur = next
	}
	if e.slotHead[pos] == 0 {
		e.occ[lvl] &^= 1 << uint(slot)
	}
	return best, found
}

// drainSlotFreed empties one wheel slot whose records the cursor is
// about to pass. Every record there must already be cancelled — a live
// one would order before the advance target, contradicting the caller's
// T <= minimum-live-time guarantee.
func (e *Engine) drainSlotFreed(lvl, slot int) {
	pos := lvl*wheelSlots + slot
	cur := e.slotHead[pos]
	for cur != 0 {
		idx := cur - 1
		rec := &e.slab[idx]
		if rec.state != recCancelled {
			panic(fmt.Sprintf("sim: timing wheel passed a live event at t=%v (cursor advance past its slot)", rec.at))
		}
		cur = rec.next
		e.freeRec(idx)
	}
	e.slotHead[pos] = 0
}

// detachSlot moves one wheel slot's whole list into the scratch buffer
// for re-placement against the new cursor.
func (e *Engine) detachSlot(lvl, slot int) {
	pos := lvl*wheelSlots + slot
	cur := e.slotHead[pos]
	for cur != 0 {
		idx := cur - 1
		e.scratch = append(e.scratch, idx)
		cur = e.slab[idx].next
	}
	e.slotHead[pos] = 0
	e.occ[lvl] &^= 1 << uint(slot)
}

// advanceTo moves the wheel cursor to T, which must not precede any live
// event (T is either the peeked minimum's time or a RunUntil deadline
// below it). Slots the cursor passes hold only cancelled records and are
// recycled; the slot containing T at the divergence level cascades its
// records toward lower levels (or the ready heap), and overflow events
// that fall inside the new horizon migrate into the wheel. Each live
// record re-places at a strictly lower level than before, so the total
// cascade work per event is bounded by the level count — amortized O(1)
// per fired event.
func (e *Engine) advanceTo(T Time) {
	if T <= e.cur {
		return
	}
	hb := bits.Len64(uint64(e.cur)^uint64(T)) - 1
	hl := hb / wheelBits
	e.scratch = e.scratch[:0]
	if hl >= wheelLevels {
		// The cursor leaves the entire wheel horizon: every level empties.
		for lvl := 0; lvl < wheelLevels; lvl++ {
			occ := e.occ[lvl]
			for occ != 0 {
				slot := bits.TrailingZeros64(occ)
				occ &^= 1 << uint(slot)
				e.drainSlotFreed(lvl, slot)
			}
			e.occ[lvl] = 0
		}
	} else {
		// Levels below the divergence level: the cursor leaves their whole
		// window, so every occupied slot is passed.
		for lvl := 0; lvl < hl; lvl++ {
			occ := e.occ[lvl]
			for occ != 0 {
				slot := bits.TrailingZeros64(occ)
				occ &^= 1 << uint(slot)
				e.drainSlotFreed(lvl, slot)
			}
			e.occ[lvl] = 0
		}
		// Divergence level: slots strictly between the old and new cursor
		// positions are passed; T's own slot cascades down.
		curSlot := uint(uint64(e.cur)>>(uint(hl)*wheelBits)) & wheelMask
		tSlot := uint(uint64(T)>>(uint(hl)*wheelBits)) & wheelMask
		if between := e.occ[hl] & (lowOnes(tSlot) &^ lowOnes(curSlot+1)); between != 0 {
			for m := between; m != 0; {
				slot := bits.TrailingZeros64(m)
				m &^= 1 << uint(slot)
				e.drainSlotFreed(hl, slot)
			}
			e.occ[hl] &^= between
		}
		if e.occ[hl]&(1<<tSlot) != 0 {
			e.detachSlot(hl, int(tSlot))
		}
	}
	// Overflow migration: events now within T's horizon re-place; the
	// heap order guarantees everything staying put is still beyond it.
	for len(e.ovfl) > 0 {
		top := e.ovfl[0]
		rec := &e.slab[top]
		if rec.state == recCancelled {
			e.ovfl, _ = e.heapPopFrom(e.ovfl)
			e.freeRec(top)
			continue
		}
		if (uint64(rec.at)^uint64(T))>>horizonBits != 0 {
			break
		}
		e.ovfl, _ = e.heapPopFrom(e.ovfl)
		e.scratch = append(e.scratch, top)
	}
	e.cur = T
	for _, idx := range e.scratch {
		rec := &e.slab[idx]
		if rec.state == recCancelled {
			e.freeRec(idx)
			continue
		}
		e.place(idx, rec.at)
	}
	e.scratch = e.scratch[:0]
}

// --- 4-ary min-heaps over slab indices --------------------------------
//
// The ready bucket (events at exactly the cursor time) and the overflow
// bucket (events beyond the wheel horizon) are small 4-ary heaps:
// shallow, cache-friendly, and shared with nothing. Sequence numbers are
// unique, so the (at, seq) comparator is a total order and pop order is
// exactly the firing order.

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
	if n > 1 {
		e.heapSiftDown(h, 0)
	}
	return h, root
}

func (e *Engine) heapSiftDown(h []uint32, i int) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.heapLess(h[c], h[min]) {
				min = c
			}
		}
		if !e.heapLess(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
