package sim

import (
	"math/bits"
	"testing"
)

// These tests pin the timing-wheel internals through the public API at
// the geometry's seams: same-timestamp events that land in different
// wheel levels because they were inserted at different cursor positions,
// and events that sit exactly on slot, level and horizon boundaries.

// scheduleAt queues fn at the absolute time at, which must not precede
// the clock.
func scheduleAt(e *Engine, at Time, fn funcSink) {
	schedule(e, at.Sub(e.Now()), fn)
}

// TestWheelSameTickOrderAcrossLevels schedules three events for one
// absolute timestamp from three different cursor positions, so they
// enter the structure at three different places — a level-2 slot, a
// level-1 slot and the ready heap. All three must still fire in
// (at, seq) order.
func TestWheelSameTickOrderAcrossLevels(t *testing.T) {
	e := NewEngine()
	const T = Time(0x1040) // diverges from cursor 0 at bit 12: level 2

	var order []string
	at := func(name string) funcSink {
		return func(_ *Engine, now Time) {
			if now != T {
				t.Fatalf("%s fired at %v, want %v", name, now, T)
			}
			order = append(order, name)
		}
	}

	// seq 0, inserted with cur=0: level 2.
	scheduleAt(e, T, at("lvl2"))
	// A filler at 0x1000 advances the cursor into T's level-2 slot; the
	// lvl2 record cascades down to level 1 when it fires.
	schedule(e, Duration(0x1000), func(*Engine, Time) {}) // seq 1
	if !e.Step() {
		t.Fatal("filler did not fire")
	}
	// seq 2, inserted with cur=0x1000: T now diverges at bit 6, level 1.
	scheduleAt(e, T, at("lvl1"))
	// Fire the tick's minimum — the level-2 record, which the cursor
	// advance cascades into the ready heap first. The cursor now sits at
	// exactly T, so the last same-tick insert goes straight to ready.
	if !e.Step() {
		t.Fatal("no event fired at T")
	}
	if len(order) != 1 || order[0] != "lvl2" {
		t.Fatalf("first event at T was %v, want lvl2 (lowest seq)", order)
	}
	scheduleAt(e, T, at("ready")) // seq 3

	e.Run()
	want := []string{"lvl2", "lvl1", "ready"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v (seq ties must break by schedule order across levels)", order, want)
		}
	}
	if e.Now() != T || e.Pending() != 0 {
		t.Fatalf("now=%v pending=%d after drain", e.Now(), e.Pending())
	}
}

// TestStepOnWheelBoundaries puts events exactly on slot and level
// boundaries (powers of 64 in picoseconds) and on the overflow horizon
// itself. At each boundary b, with a second event one tick past it: Step
// fires the boundary event at exactly b, leaves the b+1 event queued and
// reported by NextAt, and the next Step fires it at b+1.
func TestStepOnWheelBoundaries(t *testing.T) {
	boundaries := []Time{
		1 << wheelBits,                // level 0/1 seam
		1 << (2 * wheelBits),          // level 1/2 seam
		1 << (3 * wheelBits),          // level 2/3 seam
		1 << horizonBits,              // wheel horizon: the event starts in overflow
		1<<horizonBits + 1<<wheelBits, // one level-1 step past the horizon
	}
	e := NewEngine()
	for _, b := range boundaries {
		var fired []Time
		record := func(_ *Engine, now Time) { fired = append(fired, now) }
		scheduleAt(e, b, record)
		scheduleAt(e, b+1, record)
		if !e.Step() || len(fired) != 1 || fired[0] != b || e.Now() != b {
			t.Fatalf("boundary %#x: first Step fired %v, clock %v", uint64(b), fired, e.Now())
		}
		if at, ok := e.NextAt(); !ok || at != b+1 || e.Pending() != 1 {
			t.Fatalf("boundary %#x: NextAt = %v, %v with %d pending; want the b+1 event alone",
				uint64(b), at, ok, e.Pending())
		}
		if !e.Step() || len(fired) != 2 || fired[1] != b+1 || e.Now() != b+1 {
			t.Fatalf("boundary %#x: second Step fired %v, clock %v", uint64(b), fired, e.Now())
		}
	}
	if e.Step() || e.Pending() != 0 {
		t.Fatalf("pending=%d after the boundary sweep", e.Pending())
	}
}

// firedLog records which named events fired, and when.
type firedLog struct {
	names []string
	times []Time
}

func (l *firedLog) sink(name string) funcSink {
	return func(_ *Engine, now Time) {
		l.names = append(l.names, name)
		l.times = append(l.times, now)
	}
}

func (l *firedLog) check(t *testing.T, want ...string) {
	t.Helper()
	if len(l.names) != len(want) {
		t.Fatalf("fired %v, want %v", l.names, want)
	}
	for i := range want {
		if l.names[i] != want[i] {
			t.Fatalf("fired %v, want %v", l.names, want)
		}
	}
}

// TestWheelLoneRecordBesideOverflow: a record alone in a level-3 slot
// fires straight from its slot, without a ready-heap round trip, while
// an overflow record stays beyond the horizon until its own turn.
func TestWheelLoneRecordBesideOverflow(t *testing.T) {
	e := NewEngine()
	var log firedLog
	const far = Time(1<<horizonBits + 5)
	scheduleAt(e, far, log.sink("far"))
	scheduleAt(e, Time(5*Microsecond), log.sink("lone")) // diverges at bit 22: level 3
	if e.occ[3] == 0 || len(e.ovfl) != 1 {
		t.Fatalf("setup: occ[3]=%#x, %d overflow records; want a level-3 slot and one overflow record", e.occ[3], len(e.ovfl))
	}
	if !e.Step() || e.Now() != Time(5*Microsecond) {
		t.Fatalf("first Step: clock %v, fired %v", e.Now(), log.names)
	}
	log.check(t, "lone")
	if len(e.ready) != 0 || len(e.ovfl) != 1 || e.Pending() != 1 {
		t.Fatalf("after the lone fire: %d ready, %d overflow, %d pending; want 0, 1, 1",
			len(e.ready), len(e.ovfl), e.Pending())
	}
	if at, ok := e.NextAt(); !ok || at != far {
		t.Fatalf("NextAt = %v, %v; want the overflow record at %v", at, ok, far)
	}
	e.Run()
	log.check(t, "lone", "far")
	if e.Now() != far {
		t.Fatalf("clock %v after drain, want %v", e.Now(), far)
	}
}

// TestWheelOverflowHeadMigrates: the overflow heap migrates only when the
// wheel is empty (while the wheel holds anything, every overflow record
// lies outside the clock's 2^48 ps window), so the direct fire that
// migrates is the overflow head's own. Firing it must pull the next
// overflow record inside the new window into the wheel at once: a
// schedule made afterwards, later than that record, must not overtake
// it, and a record in the window after that one stays in overflow.
func TestWheelOverflowHeadMigrates(t *testing.T) {
	e := NewEngine()
	var log firedLog
	const head = Time(1<<horizonBits + 100)
	scheduleAt(e, 2<<horizonBits, log.sink("next-window"))
	scheduleAt(e, head+Time(5*Microsecond), log.sink("migrant"))
	scheduleAt(e, head, log.sink("head"))
	if len(e.ovfl) != 3 {
		t.Fatalf("setup: %d overflow records, want 3", len(e.ovfl))
	}
	if !e.Step() || e.Now() != head {
		t.Fatalf("first Step: clock %v, fired %v", e.Now(), log.names)
	}
	log.check(t, "head")
	if len(e.ovfl) != 1 || e.occ[3] == 0 || len(e.ready) != 0 {
		t.Fatalf("after the head fire: %d overflow, occ[3]=%#x, %d ready; want the migrant in level 3 and one overflow record",
			len(e.ovfl), e.occ[3], len(e.ready))
	}
	schedule(e, 10*Microsecond, log.sink("later"))
	if at, ok := e.NextAt(); !ok || at != head+Time(5*Microsecond) {
		t.Fatalf("NextAt = %v, %v; want the migrant at %v", at, ok, head+Time(5*Microsecond))
	}
	e.Run()
	log.check(t, "head", "migrant", "later", "next-window")
}

// TestWheelSharedSlotSeqOrder: one level-2 slot holds two records at T
// and a later one. Firing takes the slot's (at, seq) minimum — not its
// list head, which is the last record scheduled — and cascades the
// other two: the T twin to the ready heap, the later one a level down.
func TestWheelSharedSlotSeqOrder(t *testing.T) {
	e := NewEngine()
	var log firedLog
	const T = Time(197 * Nanosecond)
	scheduleAt(e, T, log.sink("first"))
	scheduleAt(e, T, log.sink("second"))
	scheduleAt(e, Time(200*Nanosecond), log.sink("later"))
	occupied := 0
	for lvl, occ := range e.occ {
		if occ != 0 {
			occupied += bits.OnesCount64(occ)
			if lvl != 2 {
				t.Fatalf("setup: level %d occupied, want level 2 only", lvl)
			}
		}
	}
	if occupied != 1 {
		t.Fatalf("setup: %d occupied slots, want the three records in one", occupied)
	}
	if !e.Step() || e.Now() != T {
		t.Fatalf("first Step: clock %v, fired %v", e.Now(), log.names)
	}
	log.check(t, "first")
	if len(e.ready) != 1 || e.Pending() != 2 {
		t.Fatalf("after the first fire: %d ready, %d pending; want the T twin ready and 2 pending", len(e.ready), e.Pending())
	}
	e.Run()
	log.check(t, "first", "second", "later")
	if log.times[1] != T || log.times[2] != Time(200*Nanosecond) {
		t.Fatalf("fire times %v", log.times)
	}
}

// TestScheduleAtNowAfterDirectFire: a handler fired straight from its
// slot schedules at its own instant. The new events go through the ready
// heap and fire at the same time, in schedule order, before anything
// later.
func TestScheduleAtNowAfterDirectFire(t *testing.T) {
	e := NewEngine()
	var log firedLog
	const T = Time(5 * Microsecond)
	scheduleAt(e, T, func(e *Engine, now Time) {
		log.sink("lone")(e, now)
		schedule(e, 0, func(e *Engine, now Time) {
			log.sink("now-1")(e, now)
			schedule(e, 0, log.sink("now-3"))
		})
		schedule(e, 0, log.sink("now-2"))
	})
	scheduleAt(e, 2*T, log.sink("later"))
	e.Run()
	log.check(t, "lone", "now-1", "now-2", "now-3", "later")
	for i, at := range log.times[:4] {
		if at != T {
			t.Fatalf("%s fired at %v, want %v", log.names[i], at, T)
		}
	}
}
