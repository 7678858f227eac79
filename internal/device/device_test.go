package device

import (
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/tlb"
)

func TestPTBAllocRelease(t *testing.T) {
	p := NewPTB(2)
	if !p.Alloc() || !p.Alloc() {
		t.Fatal("allocations within capacity failed")
	}
	if p.Alloc() {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if p.Free() != 0 || p.InUse() != 2 {
		t.Fatalf("Free=%d InUse=%d", p.Free(), p.InUse())
	}
	p.Release()
	if !p.Alloc() {
		t.Fatal("allocation after release failed")
	}
	s := p.Stats()
	if s.Allocs != 3 || s.Rejected != 1 || s.Peak != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPTBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of empty PTB did not panic")
		}
	}()
	NewPTB(1).Release()
}

func TestPTBRejectN(t *testing.T) {
	p := NewPTB(2)
	p.Alloc()
	p.Alloc()
	p.RejectN(4)
	if s := p.Stats(); s.Rejected != 4 || s.Allocs != 2 {
		t.Fatalf("stats %+v", s)
	}
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("RejectN with a free slot did not panic")
		}
	}()
	p.RejectN(1)
}

func TestPTBZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewPTB(0)
}

func TestPredictorLearnsRoundRobin(t *testing.T) {
	p := NewSIDPredictor(48)
	// Two full RR1 rounds over 16 tenants teach every edge.
	for round := 0; round < 3; round++ {
		for sid := mem.SID(1); sid <= 16; sid++ {
			p.Observe(sid)
		}
	}
	// History length 48 requests = 16 packets at burst 1 -> 16 hops:
	// from SID 1 that is (1-1+16) mod 16 + 1 = 1.
	got, ok := p.Predict(1)
	if !ok {
		t.Fatal("predictor has gaps after 3 rounds")
	}
	want := mem.SID((0+16)%16 + 1)
	if got != want {
		t.Fatalf("Predict(1) = %d, want %d", got, want)
	}
}

func TestPredictorBurstAwareness(t *testing.T) {
	p := NewSIDPredictor(48)
	// RR4 over 8 tenants: bursts of 4.
	for round := 0; round < 30; round++ {
		for sid := mem.SID(1); sid <= 8; sid++ {
			for b := 0; b < 4; b++ {
				p.Observe(sid)
			}
		}
	}
	// 48 requests = 16 packets; bursts of 4 packets -> 4 tenant hops.
	if h := p.Hops(); h < 3 || h > 5 {
		t.Fatalf("Hops = %d with burst 4 and history 48, want ~4", h)
	}
	if _, ok := p.Predict(3); !ok {
		t.Fatal("prediction failed on a fully learned RR4 pattern")
	}
}

func TestPredictorUnknownChain(t *testing.T) {
	p := NewSIDPredictor(4)
	p.Observe(1)
	p.Observe(2) // only edge 1->2 known
	if _, ok := p.Predict(2); ok {
		t.Fatal("prediction from SID 2 should fail (no outgoing edge)")
	}
	s := p.Stats()
	if s.Predictions != 1 || s.Unknowns != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPredictorHistoryLenRegister(t *testing.T) {
	p := NewSIDPredictor(48)
	p.SetHistoryLen(16)
	if p.HistoryLen() != 16 {
		t.Fatal("SetHistoryLen ignored")
	}
	p.SetHistoryLen(0) // invalid: keep old
	if p.HistoryLen() != 16 {
		t.Fatal("invalid history length accepted")
	}
	if NewSIDPredictor(0).HistoryLen() != 48 {
		t.Fatal("default history length should be 48")
	}
}

func key(sid mem.SID, tag uint64) tlb.Key { return tlb.Key{SID: uint32(sid), Tag: tag} }

func TestPrefetchUnitLifecycle(t *testing.T) {
	u := NewPrefetchUnit(PrefetchConfig{BufferEntries: 4, HistoryLen: 2, Degree: 2})
	// Teach the predictor 1 -> 2 -> 3 -> 1.
	for i := 0; i < 5; i++ {
		u.Predictor().Observe(1)
		u.Predictor().Observe(2)
		u.Predictor().Observe(3)
	}
	target, ok := u.ShouldPrefetch(1)
	if !ok {
		t.Fatal("prefetch not issued on learned pattern")
	}
	// Duplicate suppressed while in flight.
	if _, ok := u.ShouldPrefetch(1); ok {
		t.Fatal("duplicate prefetch for the same target not suppressed")
	}
	entries := []tlb.Entry{
		{Key: key(target, 100), Value: 0xAAA000},
		{Key: key(target, 200), Value: 0xBBB000},
	}
	u.Complete(target, entries, 30)
	if _, ok := u.Lookup(key(target, 100)); !ok {
		t.Fatal("prefetched entry not served from buffer")
	}
	// After completion a new prefetch for the same target may issue.
	if _, ok := u.ShouldPrefetch(1); !ok {
		t.Fatal("prefetch after completion suppressed")
	}
	s := u.Stats()
	if s.Issued != 2 || s.Served != 1 || s.Installed != 2 || s.Suppressed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPrefetchUnitAbort(t *testing.T) {
	u := NewPrefetchUnit(DefaultPrefetchConfig())
	u.Predictor().Observe(1)
	u.Predictor().Observe(2)
	u.Predictor().Observe(1)
	target, ok := u.ShouldPrefetch(1)
	if !ok {
		t.Fatal("prefetch not issued")
	}
	u.Abort(target)
	if _, ok := u.ShouldPrefetch(1); !ok {
		t.Fatal("prefetch after abort suppressed")
	}
}

func TestPrefetchBufferSmallAndShared(t *testing.T) {
	u := NewPrefetchUnit(PrefetchConfig{BufferEntries: 2, HistoryLen: 48, Degree: 2})
	u.Complete(1, []tlb.Entry{{Key: key(1, 1)}, {Key: key(2, 2)}, {Key: key(3, 3)}}, 30)
	// Fully associative with 2 entries: the first insert was evicted.
	hits := 0
	for _, k := range []tlb.Key{key(1, 1), key(2, 2), key(3, 3)} {
		if _, ok := u.Lookup(k); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("buffer held %d of 3 entries, want 2 (capacity)", hits)
	}
}

func TestPrefetchInvalidate(t *testing.T) {
	u := NewPrefetchUnit(DefaultPrefetchConfig())
	iova := uint64(0xbbe00000)
	u.Complete(1, []tlb.Entry{{Key: tlb.Key{SID: 1, Tag: iova>>21 | 21<<56}, Value: 0x123}}, 30)
	u.Invalidate(1, iova, 21)
	if _, ok := u.Lookup(tlb.Key{SID: 1, Tag: iova>>21 | 21<<56}); ok {
		t.Fatal("entry survived invalidate")
	}
}

func TestDefaultPrefetchConfigMatchesTableIV(t *testing.T) {
	c := DefaultPrefetchConfig()
	if c.BufferEntries != 8 || c.HistoryLen != 48 || c.Degree != 2 {
		t.Fatalf("default prefetch config %+v does not match Table IV", c)
	}
}

func TestPredictorForget(t *testing.T) {
	p := NewSIDPredictor(3) // one hop of look-ahead
	for i := 0; i < 4; i++ {
		p.Observe(1)
		p.Observe(2)
		p.Observe(3)
	}
	if got, ok := p.Predict(1); !ok || got != 2 {
		t.Fatalf("Predict(1) = (%d, %v), want (2, true)", got, ok)
	}
	p.Forget(2)
	if _, ok := p.Predict(1); ok {
		t.Fatal("entry predicting the detached tenant survived Forget")
	}
	if _, ok := p.Predict(2); ok {
		t.Fatal("detached tenant's own entry survived Forget")
	}
	if got, ok := p.Predict(3); !ok || got != 1 {
		t.Fatalf("unrelated entry dropped by Forget: Predict(3) = (%d, %v), want (1, true)", got, ok)
	}
}

func TestPredictorForgetClearsLastSeen(t *testing.T) {
	p := NewSIDPredictor(3)
	p.Observe(7)
	p.Forget(7)
	p.Observe(8)
	p.Observe(9)
	if _, ok := p.Predict(7); ok {
		t.Fatal("learned a successor for a tenant detached mid-stream")
	}
	if got, ok := p.Predict(8); !ok || got != 9 {
		t.Fatalf("Predict(8) = (%d, %v), want (9, true)", got, ok)
	}
}

func TestPrefetchUnitTenantInvalidation(t *testing.T) {
	u := NewPrefetchUnit(PrefetchConfig{BufferEntries: 4, HistoryLen: 3, Degree: 2})
	for i := 0; i < 4; i++ {
		u.Predictor().Observe(1)
		u.Predictor().Observe(2)
	}
	u.Complete(1, []tlb.Entry{{Key: key(1, 10)}, {Key: key(1, 11)}}, 0)
	u.Complete(2, []tlb.Entry{{Key: key(2, 20)}}, 0)
	if _, ok := u.ShouldPrefetch(1); !ok {
		t.Fatal("prefetch not issued before the teardown")
	}
	// Tear tenant 2 down: buffered translations, the predictor's successor
	// knowledge and the in-flight marker all go.
	if n := u.InvalidateSID(2); n != 1 {
		t.Fatalf("InvalidateSID dropped %d buffer entries, want 1", n)
	}
	if _, ok := u.Lookup(key(2, 20)); ok {
		t.Fatal("tenant 2 entry survived its teardown")
	}
	if _, ok := u.Lookup(key(1, 10)); !ok {
		t.Fatal("tenant 1 entry dropped by tenant 2's teardown")
	}
	if _, ok := u.ShouldPrefetch(1); ok {
		t.Fatal("prediction into the detached tenant survived")
	}
}

func TestPrefetchUnitFlushAllKeepsPredictor(t *testing.T) {
	u := NewPrefetchUnit(PrefetchConfig{BufferEntries: 4, HistoryLen: 3, Degree: 2})
	for i := 0; i < 4; i++ {
		u.Predictor().Observe(1)
		u.Predictor().Observe(2)
	}
	u.Complete(1, []tlb.Entry{{Key: key(1, 10)}, {Key: key(2, 20)}}, 0)
	if n := u.FlushAll(); n != 2 {
		t.Fatalf("FlushAll dropped %d entries, want 2", n)
	}
	if _, ok := u.Lookup(key(1, 10)); ok {
		t.Fatal("entry survived the broadcast flush")
	}
	// The successor relation names tenants, not translations: it survives.
	if got, ok := u.Predictor().Predict(1); !ok || got != 2 {
		t.Fatalf("flush dropped predictor state: Predict(1) = (%d, %v), want (2, true)", got, ok)
	}
}
