package sim

import (
	"testing"
)

// These tests pin the timing-wheel internals through the public API at
// the geometry's seams: same-timestamp events that land in different
// wheel levels because they were inserted at different cursor positions,
// slot recycling of a record that migrated between levels before being
// cancelled, and RunUntil deadlines that sit exactly on slot and horizon
// boundaries.

// scheduleAt queues fn at the absolute time at, which must not precede
// the clock.
func scheduleAt(e *Engine, at Time, fn funcSink) EventID {
	return schedule(e, at.Sub(e.Now()), fn)
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

// TestWheelCancelAfterLevelMigration cancels an event after the cursor
// advance has already cascaded its record from a level-2 slot into a
// level-1 slot, drains the queue so the record is recycled during a slot
// scan, and then reuses the slot: the stale EventID must stay dead and
// the slot's new occupant must fire untouched.
func TestWheelCancelAfterLevelMigration(t *testing.T) {
	e := NewEngine()
	const T = Time(0x1040)

	far := schedule(e, Duration(T), func(*Engine, Time) { t.Fatal("cancelled event fired") })
	schedule(e, Duration(0x1000), func(*Engine, Time) {})
	if !e.Step() { // cursor -> 0x1000; far migrates level 2 -> level 1
		t.Fatal("filler did not fire")
	}
	if !e.Cancel(far) {
		t.Fatal("migrated event did not cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", e.Pending())
	}
	// Draining scans the level-1 slot, recycles the cancelled record and
	// must report an empty queue rather than firing it.
	if e.Step() {
		t.Fatal("Step fired something in a queue holding only a cancelled record")
	}
	if len(e.free) != len(e.slab) {
		t.Fatalf("free list (%d) does not cover the slab (%d) after drain", len(e.free), len(e.slab))
	}

	// Reuse the recycled slot and check the stale ID stays inert.
	fired := false
	fresh := schedule(e, 1*Nanosecond, func(*Engine, Time) { fired = true })
	if e.Cancel(far) {
		t.Fatal("stale EventID cancelled the slot's new occupant")
	}
	e.Run()
	if !fired {
		t.Fatal("slot's new occupant did not fire")
	}
	if e.Cancel(fresh) {
		t.Fatal("Cancel after fire returned true")
	}
}

// TestRunUntilOnWheelBoundaries lands RunUntil deadlines exactly on slot
// and level boundaries (powers of 64 in picoseconds) and on the overflow
// horizon itself. At each boundary: an event at the deadline fires, an
// event one tick past it stays queued, and the clock lands exactly on
// the deadline.
func TestRunUntilOnWheelBoundaries(t *testing.T) {
	boundaries := []Time{
		1 << wheelBits,                // level 0/1 seam
		1 << (2 * wheelBits),          // level 1/2 seam
		1 << (3 * wheelBits),          // level 2/3 seam
		1 << horizonBits,              // wheel horizon: the event starts in overflow
		1<<horizonBits + 1<<wheelBits, // one level-1 step past the horizon
	}
	e := NewEngine()
	var prev Time
	for _, b := range boundaries {
		firedAt := Time(-1)
		scheduleAt(e, b, func(_ *Engine, now Time) { firedAt = now })
		scheduleAt(e, b+1, func(*Engine, Time) {})
		if n := e.RunUntil(b); n != 1 {
			t.Fatalf("RunUntil(%#x) fired %d events, want 1", uint64(b), n)
		}
		if firedAt != b {
			t.Fatalf("boundary event fired at %v, want %#x", firedAt, uint64(b))
		}
		if e.Now() != b {
			t.Fatalf("clock = %v after RunUntil(%#x)", e.Now(), uint64(b))
		}
		if e.Pending() != 1 {
			t.Fatalf("pending = %d at boundary %#x, want 1 (the b+1 event)", e.Pending(), uint64(b))
		}
		// Clear the straggler before the next boundary.
		if n := e.RunUntil(b + 1); n != 1 {
			t.Fatalf("straggler run fired %d, want 1", n)
		}
		prev = b + 1
	}
	if e.Now() != prev || e.Pending() != 0 {
		t.Fatalf("now=%v pending=%d after the boundary sweep", e.Now(), e.Pending())
	}
}

// TestRunUntilBoundaryWithEmptyWindow: a deadline exactly on a level seam
// with no event anywhere inside the window still advances the clock and
// cursor to the seam, and a subsequent schedule relative to it fires at
// the right time.
func TestRunUntilBoundaryWithEmptyWindow(t *testing.T) {
	e := NewEngine()
	const seam = Time(1 << (2 * wheelBits))
	scheduleAt(e, seam*4, func(*Engine, Time) {})
	if n := e.RunUntil(seam); n != 0 {
		t.Fatalf("empty window fired %d events", n)
	}
	if e.Now() != seam {
		t.Fatalf("clock = %v, want %v", e.Now(), seam)
	}
	firedAt := Time(-1)
	schedule(e, 1*Picosecond, func(_ *Engine, now Time) { firedAt = now })
	if n := e.RunUntil(seam + 1); n != 1 {
		t.Fatalf("fired %d events, want 1", n)
	}
	if firedAt != seam+1 {
		t.Fatalf("post-seam event fired at %v, want %v", firedAt, seam+1)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

// TestRunUntilDrainsCancelledSlots pins the cursor-advance reclamation
// path: cancelled records parked in wheel slots the cursor passes over
// (including a jump past the entire 2^48 ps horizon) are freed during
// the advance rather than leaking until some later scan.
func TestRunUntilDrainsCancelledSlots(t *testing.T) {
	e := NewEngine()

	// Cancelled records across several levels, then a deadline beyond all
	// of them with nothing live: every passed slot must drain.
	var ids []EventID
	for _, d := range []Duration{0x40, 0x1000, 0x40000, 0x1000000} {
		ids = append(ids, schedule(e, d, func(*Engine, Time) { t.Fatal("cancelled event fired") }))
	}
	for _, id := range ids {
		if !e.Cancel(id) {
			t.Fatal("cancel failed")
		}
	}
	if n := e.RunUntil(Time(0x2000000)); n != 0 {
		t.Fatalf("RunUntil fired %d events, want 0", n)
	}
	if len(e.free) != len(e.slab) {
		t.Fatalf("free list (%d) does not cover the slab (%d) after cursor advance",
			len(e.free), len(e.slab))
	}

	// Jump past the whole wheel horizon with a cancelled record inside it
	// and a live one beyond it (in the overflow heap): the advance drains
	// every level, migrates the overflow event in, and fires it.
	stale := schedule(e, Duration(0x40), func(*Engine, Time) { t.Fatal("cancelled event fired") })
	fired := false
	schedule(e, Duration(1)<<horizonBits+Duration(0x40), func(*Engine, Time) { fired = true })
	if !e.Cancel(stale) {
		t.Fatal("cancel failed")
	}
	if n := e.RunUntil(e.Now() + Time(1)<<horizonBits + Time(0x80)); n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	if !fired {
		t.Fatal("overflow event did not fire after horizon jump")
	}
	if len(e.free) != len(e.slab) {
		t.Fatalf("free list (%d) does not cover the slab (%d) after horizon jump",
			len(e.free), len(e.slab))
	}
	schedule(e, 1*Nanosecond, func(*Engine, Time) {})
	if !e.Step() {
		t.Fatal("engine dead after horizon jump")
	}
}
