package sim

import (
	"testing"
)

// FuzzEngineMatchesHeapRef drives the timing-wheel engine and the old
// container/heap reference (refEngine, slab_test.go) through the same
// byte-decoded operation stream and requires identical observable
// behaviour: the same fire times in the same order, the same NextAt
// peeks, and the same pending count and clock at every step. The decoder
// is built to stress the wheel's seams — near events exercise level-0
// slots and the ready heap, far-future events start in the overflow heap
// and migrate across every level on their way down, and peeks find the
// minimum wherever it currently lives.
//
// Op stream: each op byte selects by op%4, data bytes follow.
//
//	0: schedule near    (1 data byte d: delay = d ns, level 0..2)
//	1: schedule far     (2 data bytes: delay = hi<<40 | lo<<32 ps,
//	                     up to ~2^48 — straddles the overflow horizon)
//	2: peek             (1 data byte, ignored, so committed inputs keep
//	                     their layout: NextAt against the reference head)
//	3: step both engines
func FuzzEngineMatchesHeapRef(f *testing.F) {
	// Committed seeds (also under testdata/fuzz/FuzzEngineMatchesHeapRef):
	// near events, far-future scheduling with interleaved fires, and
	// peeks between schedules and fires.
	f.Add([]byte("0A0B0C333333"))                          // near events, drain
	f.Add([]byte("1\xff\xff1\x80\x001\x00\x01333333"))     // beyond, at and below the horizon
	f.Add([]byte("0A0B0C0D0E2\x002\x012\x022\x032\x0433")) // schedule 5, peek 5 times, step
	f.Add([]byte("1\xff\xff0A2\x0032\x0133"))              // far and near, peek, fire, peek

	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		ref := &refEngine{}

		type firing struct {
			at  Time
			seq uint64
		}
		var got, want []firing

		sink := firingRecorder{record: func(at Time, _ uint64) {
			got = append(got, firing{at: at})
		}}

		stepBoth := func() {
			at, seq, ok := ref.step()
			if ok {
				want = append(want, firing{at, seq})
			}
			if e.Step() != ok {
				t.Fatalf("Step disagreement: ref fired=%v (wheel pending=%d)", ok, e.Pending())
			}
		}

		i := 0
		next := func() (byte, bool) {
			if i >= len(ops) {
				return 0, false
			}
			b := ops[i]
			i++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0:
				d, ok := next()
				if !ok {
					break
				}
				delay := Duration(d) * Nanosecond
				e.ScheduleEvent(delay, sink, 0)
				ref.schedule(delay)
			case 1:
				hi, ok := next()
				if !ok {
					break
				}
				lo, _ := next()
				delay := Duration(hi)<<40 | Duration(lo)<<32
				e.ScheduleEvent(delay, sink, 0)
				ref.schedule(delay)
			case 2:
				if _, ok := next(); !ok {
					break
				}
				gat, gok := e.NextAt()
				rat, rok := ref.peek()
				if gat != rat || gok != rok {
					t.Fatalf("NextAt disagreement at op %d: wheel=%v,%v ref=%v,%v", i, gat, gok, rat, rok)
				}
			case 3:
				stepBoth()
			}
			if e.Pending() != len(ref.queue) {
				t.Fatalf("pending %d, reference %d", e.Pending(), len(ref.queue))
			}
			if e.Now() != ref.now {
				t.Fatalf("clock %v, reference %v", e.Now(), ref.now)
			}
		}
		// Drain both and compare the complete firing sequence; the final
		// empty-queue step makes both report exhaustion.
		for len(ref.queue) > 0 || e.Pending() > 0 {
			stepBoth()
		}
		stepBoth()
		if len(got) != len(want) {
			t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
		}
		for j := range got {
			if got[j].at != want[j].at {
				t.Fatalf("firing %d at %v, reference %v", j, got[j].at, want[j].at)
			}
		}
		if len(e.free) != len(e.slab) {
			t.Fatalf("free list (%d) does not cover the slab (%d) after drain", len(e.free), len(e.slab))
		}
	})
}
