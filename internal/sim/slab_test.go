package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// --- generation-checked cancellation ----------------------------------

// TestCancelStaleIDAfterRecycle pins the EventID generation contract: an
// ID whose event already fired must stay a no-op even after the slab
// slot is recycled by a new event — cancelling the stale ID must not
// cancel the slot's new occupant.
func TestCancelStaleIDAfterRecycle(t *testing.T) {
	e := NewEngine()
	stale := schedule(e, 1*Nanosecond, func(*Engine, Time) {})
	e.Run() // fires; the slot goes to the free list

	// The next schedule reuses the freed slot (single-slot slab).
	fired := false
	fresh := schedule(e, 1*Nanosecond, func(*Engine, Time) { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("slot not recycled: stale=%d fresh=%d", stale.slot, fresh.slot)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot kept the same generation")
	}
	if e.Cancel(stale) {
		t.Fatal("stale EventID cancelled the slot's new occupant")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire — stale Cancel touched it")
	}
	// And the fresh ID is itself stale now.
	if e.Cancel(fresh) {
		t.Fatal("Cancel after fire returned true")
	}
}

// TestCancelZeroAndOutOfRangeIDs: the zero EventID and IDs beyond the
// slab are safe no-ops.
func TestCancelZeroAndOutOfRangeIDs(t *testing.T) {
	e := NewEngine()
	if e.Cancel(EventID{}) {
		t.Fatal("zero EventID cancelled something")
	}
	if e.Cancel(EventID{slot: 99, gen: 0}) {
		t.Fatal("out-of-range EventID cancelled something")
	}
	id := schedule(e, 1*Nanosecond, func(*Engine, Time) {})
	if !e.Cancel(id) {
		t.Fatal("live event did not cancel")
	}
	if e.Cancel(id) {
		t.Fatal("double cancel returned true")
	}
}

// TestRunUntilSkipsCancelledHead guards the lazy-deletion interaction
// with RunUntil's head peek: a cancelled record sitting at the heap root
// inside the window must not cause a live event beyond the deadline to
// fire.
func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	id := schedule(e, 5*Nanosecond, func(*Engine, Time) { t.Fatal("cancelled event fired") })
	fired := false
	schedule(e, 20*Nanosecond, func(*Engine, Time) { fired = true })
	e.Cancel(id)
	if n := e.RunUntil(Time(10 * Nanosecond)); n != 0 {
		t.Fatalf("RunUntil fired %d events, want 0", n)
	}
	if fired {
		t.Fatal("event beyond the deadline fired")
	}
	if e.Now() != Time(10*Nanosecond) {
		t.Fatalf("clock = %v, want 10ns", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("live event never fired")
	}
}

// --- event sinks and payloads -----------------------------------------

type recordingSink struct {
	fired []uint64
	ats   []Time
}

func (s *recordingSink) HandleEvent(_ *Engine, now Time, payload uint64) {
	s.fired = append(s.fired, payload)
	s.ats = append(s.ats, now)
}

// TestScheduleEventPayloadAndOrder: events carry their payload and
// interleave across sinks in one (time, seq) order.
func TestScheduleEventPayloadAndOrder(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{}
	var order []string
	schedule(e, 10*Nanosecond, func(*Engine, Time) { order = append(order, "func") })
	e.ScheduleEvent(10*Nanosecond, sink, 42) // same timestamp: fires second by seq
	e.ScheduleEvent(5*Nanosecond, sink, 7)   // earlier: fires first
	e.Run()
	if len(sink.fired) != 2 || sink.fired[0] != 7 || sink.fired[1] != 42 {
		t.Fatalf("payloads = %v, want [7 42]", sink.fired)
	}
	if sink.ats[0] != Time(5*Nanosecond) || sink.ats[1] != Time(10*Nanosecond) {
		t.Fatalf("fire times = %v", sink.ats)
	}
	if len(order) != 1 || order[0] != "func" {
		t.Fatalf("funcSink event lost: %v", order)
	}
}

// TestScheduleEventCancel: a cancelled event never reaches its sink.
func TestScheduleEventCancel(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{}
	id := e.ScheduleEvent(10*Nanosecond, sink, 1)
	e.ScheduleEvent(20*Nanosecond, sink, 2)
	if !e.Cancel(id) {
		t.Fatal("typed event did not cancel")
	}
	e.Run()
	if len(sink.fired) != 1 || sink.fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", sink.fired)
	}
}

func TestScheduleEventNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative typed delay did not panic")
		}
	}()
	NewEngine().ScheduleEvent(-1, &recordingSink{}, 0)
}

func TestScheduleEventLabeled(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{}
	e.ScheduleEventLabeled(5*Nanosecond, "sample", sink, 3)
	e.Run()
	if len(sink.fired) != 1 || sink.fired[0] != 3 {
		t.Fatalf("fired = %v, want [3]", sink.fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative labeled typed delay did not panic")
		}
	}()
	e.ScheduleEventLabeled(-1, "bad", sink, 0)
}

// --- allocation pins ---------------------------------------------------

// drainSink is an EventSink whose records schedule nothing; used to
// measure the bare typed schedule+fire cycle.
type drainSink struct{ n int }

func (s *drainSink) HandleEvent(*Engine, Time, uint64) { s.n++ }

// TestScheduleStepZeroAllocs pins the allocation contract: after
// warm-up, ScheduleEvent and Step allocate nothing. Future changes
// cannot silently reintroduce per-event garbage.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	sink := &drainSink{}
	// Warm-up: grow the slab, heap and free list to steady-state size.
	for i := 0; i < 512; i++ {
		e.ScheduleEvent(Duration(i%16)*Nanosecond, sink, uint64(i))
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(3*Nanosecond, sink, 9)
		if !e.Step() {
			t.Fatal("queue empty")
		}
	}); avg != 0 {
		t.Fatalf("ScheduleEvent+Step allocates %v/op in steady state, want 0", avg)
	}
	// A deeper queue (many pending events) must not change the story.
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(Duration(i%8)*Nanosecond, sink, uint64(i))
		}
		for i := 0; i < 64; i++ {
			e.Step()
		}
	}); avg != 0 {
		t.Fatalf("batched ScheduleEvent+Step allocates %v/op in steady state, want 0", avg)
	}
}

// --- old-heap reference comparison ------------------------------------

// refEngine is the pre-slab engine, preserved here verbatim in miniature
// as the firing-order referee: a pointer-per-event binary heap driven by
// container/heap with eager cancellation. The slab engine must fire the
// exact same (time, seq) sequence for any mixed schedule/cancel/fire
// workload.
type refEvent struct {
	at    Time
	seq   uint64
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now     Time
	queue   refQueue
	nextSeq uint64
}

func (r *refEngine) schedule(delay Duration) *refEvent {
	ev := &refEvent{at: r.now.Add(delay), seq: r.nextSeq}
	r.nextSeq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&r.queue, ev.index)
	return true
}

func (r *refEngine) step() (Time, uint64, bool) {
	if len(r.queue) == 0 {
		return 0, 0, false
	}
	ev := heap.Pop(&r.queue).(*refEvent)
	r.now = ev.at
	return ev.at, ev.seq, true
}

// TestSlabEngineMatchesReference drives both engines through 10k mixed
// schedule/cancel/fire operations from a seeded RNG and requires the
// identical firing sequence — the determinism proof that the 4-ary slab
// heap is observationally the old container/heap engine.
func TestSlabEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	e := NewEngine()
	ref := &refEngine{}

	type firing struct {
		at  Time
		seq uint64
	}
	var got, want []firing

	var liveIDs []EventID
	var liveRefs []*refEvent

	record := func(at Time, seq uint64) { got = append(got, firing{at, seq}) }
	sink := firingRecorder{record: record}

	const ops = 10000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // schedule
			d := Duration(rng.Intn(500)) * Nanosecond
			id := e.ScheduleEvent(d, sink, 0)
			liveIDs = append(liveIDs, id)
			liveRefs = append(liveRefs, ref.schedule(d))
		case op < 7: // cancel a random outstanding event
			if len(liveIDs) == 0 {
				continue
			}
			k := rng.Intn(len(liveIDs))
			gc := e.Cancel(liveIDs[k])
			rc := ref.cancel(liveRefs[k])
			if gc != rc {
				t.Fatalf("op %d: Cancel disagreement: slab=%v ref=%v", i, gc, rc)
			}
		default: // fire one event on both engines
			at, seq, ok := ref.step()
			if ok {
				want = append(want, firing{at, seq})
			}
			if e.Step() != ok {
				t.Fatalf("op %d: Step disagreement (ref fired=%v)", i, ok)
			}
		}
	}
	// Drain both.
	for {
		at, seq, ok := ref.step()
		if !ok {
			break
		}
		want = append(want, firing{at, seq})
	}
	for e.Step() {
	}

	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i].at != want[i].at {
			t.Fatalf("firing %d: at %v, reference %v", i, got[i].at, want[i].at)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("slab engine still has %d pending after drain", e.Pending())
	}
}

// firingRecorder adapts a func to EventSink for the reference test.
type firingRecorder struct {
	record func(at Time, seq uint64)
}

func (r firingRecorder) HandleEvent(_ *Engine, now Time, _ uint64) { r.record(now, 0) }

// TestSlabReuseBoundsGrowth: a workload that schedules and drains in
// waves must not grow the slab beyond its high-water mark.
func TestSlabReuseBoundsGrowth(t *testing.T) {
	e := NewEngine()
	sink := &drainSink{}
	for wave := 0; wave < 50; wave++ {
		for i := 0; i < 100; i++ {
			e.ScheduleEvent(Duration(i)*Nanosecond, sink, 0)
		}
		e.Run()
	}
	if len(e.slab) > 100 {
		t.Fatalf("slab grew to %d records for a 100-event working set", len(e.slab))
	}
	if len(e.free) != len(e.slab) {
		t.Fatalf("free list (%d) does not cover the drained slab (%d)", len(e.free), len(e.slab))
	}
}
