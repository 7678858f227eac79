package device

import (
	"testing"

	"hypertrio/internal/mem"
)

// refPredictor is a map-based successor table: the reference model the
// dense SIDPredictor table must agree with. It tracks only the successor
// relation; the look-ahead comes from the predictor under test.
type refPredictor struct {
	successor map[mem.SID]mem.SID
	last      mem.SID
	haveLast  bool
}

func newRefPredictor() *refPredictor {
	return &refPredictor{successor: make(map[mem.SID]mem.SID)}
}

func (r *refPredictor) Observe(sid mem.SID) {
	if r.haveLast && sid != r.last {
		r.successor[r.last] = sid
	}
	r.last, r.haveLast = sid, true
}

func (r *refPredictor) Predict(current mem.SID, hops int) (mem.SID, bool) {
	sid := current
	for i := 0; i < hops; i++ {
		next, ok := r.successor[sid]
		if !ok {
			return 0, false
		}
		sid = next
	}
	return sid, true
}

func (r *refPredictor) Forget(sid mem.SID) {
	delete(r.successor, sid)
	for from, to := range r.successor {
		if to == sid {
			delete(r.successor, from)
		}
	}
	if r.haveLast && r.last == sid {
		r.haveLast = false
	}
}

// agree checks p against the reference for every probe SID and for the
// entry count.
func (r *refPredictor) agree(t *testing.T, p *SIDPredictor, probes []mem.SID) {
	t.Helper()
	for _, probe := range probes {
		hops := p.Hops()
		got, gotOK := p.Predict(probe)
		want, wantOK := r.Predict(probe, hops)
		if got != want || gotOK != wantOK {
			t.Fatalf("Predict(%d) = %d, %v; reference %d, %v", probe, got, gotOK, want, wantOK)
		}
	}
	if got, want := p.Stats().Entries, len(r.successor); got != want {
		t.Fatalf("Stats().Entries = %d, reference holds %d", got, want)
	}
}

// FuzzPredictor drives the SID-predictor with an arbitrary interleaving
// of Observe, Predict, Forget and SetHistoryLen and asserts its standing
// invariants: no panic, Hops() >= 1, burst EWMA >= 1 (run lengths are at
// least one packet), and a just-forgotten tenant is unreachable from any
// prediction until re-observed. After every op it must also agree with
// the map-based reference model for every probe SID (0 and 17, outside
// the fuzzed range, included).
func FuzzPredictor(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3}, uint8(48))
	f.Add([]byte{0x81, 1, 0x41, 1, 0x81}, uint8(0)) // forget/predict churn, default register
	f.Add([]byte{7, 7, 7, 7, 0xC7, 7}, uint8(3))    // long burst then forget+predict

	f.Fuzz(func(t *testing.T, ops []byte, histLen uint8) {
		p := NewSIDPredictor(int(histLen))
		ref := newRefPredictor()
		probes := make([]mem.SID, 18)
		for i := range probes {
			probes[i] = mem.SID(i)
		}
		for _, op := range ops {
			sid := mem.SID(op&0x0F) + 1
			switch {
			case op&0x80 != 0 && op&0x40 != 0:
				p.Forget(sid)
				ref.Forget(sid)
				// A forgotten tenant has no entry and nothing predicting
				// it: no chain of any length can reach it.
				for probe := mem.SID(1); probe <= 16; probe++ {
					if got, ok := p.Predict(probe); ok && got == sid {
						t.Fatalf("Predict(%d) = %d right after Forget(%d)", probe, got, sid)
					}
				}
			case op&0x80 != 0:
				p.Forget(sid)
				ref.Forget(sid)
			case op&0x40 != 0:
				p.Predict(sid)
			case op&0x20 != 0:
				p.SetHistoryLen(int(op & 0x1F))
			default:
				p.Observe(sid)
				ref.Observe(sid)
			}
			ref.agree(t, p, probes)
			if p.Hops() < 1 {
				t.Fatalf("Hops() = %d, want >= 1", p.Hops())
			}
			if p.HistoryLen() <= 0 {
				t.Fatalf("HistoryLen() = %d, want > 0", p.HistoryLen())
			}
			s := p.Stats()
			if s.BurstEWMA < 1 {
				t.Fatalf("burst EWMA %v dropped below 1 (run lengths are >= 1)", s.BurstEWMA)
			}
			if s.Predictions < s.Unknowns {
				t.Fatalf("stats inconsistent: %d unknowns out of %d predictions", s.Unknowns, s.Predictions)
			}
		}
	})
}

// TestPredictorExtremeSIDs drives SID 0 and a large SID through the dense
// table exactly as the map-based reference handles them: learned,
// predicted in both directions, forgotten together, and relearned.
func TestPredictorExtremeSIDs(t *testing.T) {
	const big = mem.SID(1 << 20)
	p := NewSIDPredictor(3) // one hop of look-ahead
	ref := newRefPredictor()
	probes := []mem.SID{0, 1, big - 1, big, big + 1, 1 << 21}
	step := func(f func()) {
		t.Helper()
		f()
		ref.agree(t, p, probes)
	}
	for _, sid := range []mem.SID{0, big, 0, big} {
		step(func() { p.Observe(sid); ref.Observe(sid) })
	}
	if got, ok := p.Predict(0); !ok || got != big {
		t.Fatalf("Predict(0) = %d, %v; want %d", got, ok, big)
	}
	if got, ok := p.Predict(big); !ok || got != 0 {
		t.Fatalf("Predict(%d) = %d, %v; want 0", big, got, ok)
	}
	step(func() { p.Forget(0); ref.Forget(0) })
	if n := p.Stats().Entries; n != 0 {
		t.Fatalf("Forget(0) left %d entries", n)
	}
	for _, sid := range []mem.SID{big, 1, 0, big} {
		step(func() { p.Observe(sid); ref.Observe(sid) })
	}
	step(func() { p.Forget(big); ref.Forget(big) })
	if got, ok := p.Predict(1); !ok || got != 0 {
		t.Fatalf("Predict(1) = %d, %v after Forget(%d); want 0", got, ok, big)
	}
}
