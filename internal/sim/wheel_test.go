package sim

import (
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
