package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

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

func TestScheduleEventNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative typed delay did not panic")
		}
	}()
	NewEngine().ScheduleEvent(-1, &recordingSink{}, 0)
}

// --- allocation pins ---------------------------------------------------

// drainSink is an EventSink whose records schedule nothing; used to
// measure the bare typed schedule+fire cycle.
type drainSink struct{ n int }

func (s *drainSink) HandleEvent(*Engine, Time, uint64) { s.n++ }

// TestScheduleStepZeroAllocs pins the allocation contract: after
// warm-up, ScheduleEvent, NextAt and Step allocate nothing. Future changes
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
	// Peeking with NextAt between schedule and fire, the way a handler
	// does, is allocation-free too.
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(3*Nanosecond, sink, 9)
		if _, ok := e.NextAt(); !ok {
			t.Fatal("NextAt found nothing pending")
		}
		e.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleEvent+NextAt+Step allocates %v/op in steady state, want 0", avg)
	}
	// A record alone in its slot fires straight from it; two records at
	// one time share a slot, so firing one cascades its twin to the
	// ready heap (and a later record in that slot a level down).
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(5*Microsecond, sink, 9)
		e.Step()
		for _, d := range []Duration{197 * Nanosecond, 197 * Nanosecond, 200 * Nanosecond} {
			e.ScheduleEvent(d, sink, 9)
		}
		for i := 0; i < 3; i++ {
			e.Step()
		}
	}); avg != 0 {
		t.Fatalf("direct-fire and cascade Steps allocate %v/op in steady state, want 0", avg)
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

// refEngine is the pre-slab engine, preserved here in miniature as the
// firing-order referee: a pointer-per-event binary heap driven by
// container/heap. The slab engine must fire the exact same (time, seq)
// sequence for any mixed schedule/peek/fire workload.
type refEvent struct {
	at  Time
	seq uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now     Time
	queue   refQueue
	nextSeq uint64
}

func (r *refEngine) schedule(delay Duration) {
	heap.Push(&r.queue, &refEvent{at: r.now.Add(delay), seq: r.nextSeq})
	r.nextSeq++
}

// peek reports the head's time, as Engine.NextAt does.
func (r *refEngine) peek() (Time, bool) {
	if len(r.queue) == 0 {
		return 0, false
	}
	return r.queue[0].at, true
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
// schedule/peek/fire operations from a seeded RNG and requires the
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

	record := func(at Time, seq uint64) { got = append(got, firing{at, seq}) }
	sink := firingRecorder{record: record}

	const ops = 10000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // schedule
			d := Duration(rng.Intn(500)) * Nanosecond
			e.ScheduleEvent(d, sink, 0)
			ref.schedule(d)
		case op < 7: // peek at the next event time on both engines
			gat, gok := e.NextAt()
			rat, rok := ref.peek()
			if gat != rat || gok != rok {
				t.Fatalf("op %d: NextAt disagreement: slab=%v,%v ref=%v,%v", i, gat, gok, rat, rok)
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
