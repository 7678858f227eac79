package iommu

import (
	"math/rand"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// Property: for random tenants and random canonical gIOVAs, Translate
// always agrees with a direct nested walk and never reports more memory
// accesses than a cold two-dimensional walk plus context reads.
func TestPropertyTranslateAgreesWithWalk(t *testing.T) {
	tenants, spaces := buildTenants(t, 8, workload.Websearch)
	u := New(testConfig(16), tenants)
	rng := rand.New(rand.NewSource(77))
	maxCost := ContextReadAccesses + 24
	for i := 0; i < 500; i++ {
		as := spaces[rng.Intn(len(spaces))]
		var iova uint64
		switch rng.Intn(4) {
		case 0:
			iova = as.Ring + uint64(rng.Intn(mem.PageSize))
		case 1:
			iova = as.Mailbox + uint64(rng.Intn(mem.PageSize))
		case 2:
			iova = as.DataPages[rng.Intn(len(as.DataPages))] + uint64(rng.Intn(mem.HugePageSize))
		default:
			iova = as.InitPages[rng.Intn(len(as.InitPages))] + uint64(rng.Intn(mem.PageSize))
		}
		shift := workload.PageShiftOf(iova)
		res, err := u.Translate(as.SID, iova, shift, rng.Intn(2) == 0)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		want, err := as.Nested.WalkInto(iova, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.HPA != want.HPA {
			t.Fatalf("iter %d: HPA %#x, walk says %#x", i, res.HPA, want.HPA)
		}
		if res.MemAccesses < 0 || res.MemAccesses > maxCost {
			t.Fatalf("iter %d: %d accesses outside [0,%d]", i, res.MemAccesses, maxCost)
		}
		if res.IOTLBHit && res.MemAccesses > ContextReadAccesses {
			t.Fatalf("iter %d: IOTLB hit cost %d accesses", i, res.MemAccesses)
		}
	}
	// Counter consistency after the storm.
	s := u.Stats()
	if s.Translations != 500 {
		t.Fatalf("translations = %d", s.Translations)
	}
	if s.Walks > s.Translations {
		t.Fatal("more walks than translations")
	}
	if s.IOTLB.Hits+s.IOTLB.Misses != s.IOTLB.Lookups {
		t.Fatalf("IOTLB stats inconsistent: %+v", s.IOTLB)
	}
}

// Property: interleaving invalidations with translations never corrupts
// results — a translation after invalidate re-walks and returns the same
// hPA (the mapping itself is unchanged).
func TestPropertyInvalidateConsistency(t *testing.T) {
	tenants, spaces := buildTenants(t, 4, workload.Mediastream)
	u := New(testConfig(8), tenants)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		as := spaces[rng.Intn(len(spaces))]
		page := as.DataPages[rng.Intn(len(as.DataPages))]
		if rng.Intn(3) == 0 {
			u.Invalidate(as.SID, page, mem.HugePageShift)
			continue
		}
		res, err := u.Translate(as.SID, page+uint64(rng.Intn(4096)), mem.HugePageShift, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := as.Nested.WalkInto(page, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.HPA&^uint64(mem.HugePageSize-1) != want.HPA&^uint64(mem.HugePageSize-1) {
			t.Fatalf("iter %d: page base mismatch", i)
		}
	}
}

// Property: history Recent never returns more than depth entries, never
// duplicates a page, and most-recent-first ordering holds under random
// record/drop interleavings.
func TestPropertyHistoryInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistory(4)
	last := make(map[uint64]uint64) // (sid,page) -> logical time
	clock := uint64(0)
	for i := 0; i < 2000; i++ {
		sid := mem.SID(rng.Intn(3) + 1)
		page := uint64(rng.Intn(8)) << 12
		if rng.Intn(5) == 0 {
			h.Drop(sid, page, 12)
			delete(last, uint64ToKey(sid, page))
			continue
		}
		clock++
		h.Record(sid, page|uint64(rng.Intn(4096)), 12)
		last[uint64ToKey(sid, page)] = clock
		r := h.Recent(sid, 10)
		if len(r) > 4 {
			t.Fatalf("Recent returned %d > depth", len(r))
		}
		seen := map[uint64]bool{}
		for j, e := range r {
			if seen[e.IOVA] {
				t.Fatalf("duplicate page %#x in history", e.IOVA)
			}
			seen[e.IOVA] = true
			if j > 0 && last[uint64ToKey(sid, r[j-1].IOVA)] < last[uint64ToKey(sid, e.IOVA)] {
				t.Fatalf("history not most-recent-first at %d", j)
			}
		}
	}
}

func uint64ToKey(sid mem.SID, page uint64) uint64 {
	return uint64(sid)<<48 | page
}
