package iommu

import (
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/tlb"
	"hypertrio/internal/workload"
)

// buildTenants maps n tenants with kind's layout and returns the
// pieces an IOMMU needs.
func buildTenants(t *testing.T, n int, kind workload.Kind) (*mem.TenantTables, []*workload.AddressSpace) {
	t.Helper()
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	tenants := mem.NewTenantTables(mem.SID(n))
	var spaces []*workload.AddressSpace
	for i := 1; i <= n; i++ {
		as, err := workload.BuildAddressSpaceLevels(workload.ProfileFor(kind), mem.SID(i), host, tenants, mem.Levels)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, as)
	}
	return tenants, spaces
}

func testConfig(iotlbSets int) Config {
	cfg := Config{
		ContextCache: DefaultContextCache(),
		L2PWC:        tlb.Config{Name: "l2pwc", Sets: 32, Ways: 16, Policy: tlb.LFU},
		L3PWC:        tlb.Config{Name: "l3pwc", Sets: 64, Ways: 16, Policy: tlb.LFU},
	}
	if iotlbSets > 0 {
		cfg.IOTLB = tlb.Config{Name: "iotlb", Sets: iotlbSets, Ways: 8, Policy: tlb.LRU}
	}
	return cfg
}

func TestTranslateMatchesWalk(t *testing.T) {
	tenants, spaces := buildTenants(t, 2, workload.Mediastream)
	u := New(testConfig(0), tenants)
	for _, as := range spaces {
		for _, iova := range []uint64{as.Ring + 0x40, as.DataPages[3] + 0x1234, as.Mailbox} {
			want, err := as.Nested.WalkInto(iova, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := u.Translate(as.SID, iova, workload.PageShiftOf(iova), true)
			if err != nil {
				t.Fatal(err)
			}
			if got.HPA != want.HPA {
				t.Fatalf("SID %d iova %#x: HPA %#x, want %#x", as.SID, iova, got.HPA, want.HPA)
			}
		}
	}
}

func TestColdTranslationCosts(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Mediastream)
	u := New(testConfig(0), tenants)
	as := spaces[0]
	// Cold 4K ring page: 2 context reads + 24 walk accesses.
	res, err := u.Translate(as.SID, as.Ring, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCHit || res.PWCLevel != 0 {
		t.Fatalf("cold translation hit something: %+v", res)
	}
	if res.MemAccesses != ContextReadAccesses+24 {
		t.Fatalf("cold 4K cost %d accesses, want %d", res.MemAccesses, ContextReadAccesses+24)
	}
	// Cold 2M data page in a fresh granule: context hits now; the L3 PWC
	// entry installed by the ring walk covers a different 1 GB granule.
	res, err = u.Translate(as.SID, as.DataPages[0], mem.HugePageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCHit != true {
		t.Fatal("context cache should hit on second translation")
	}
	if res.PWCLevel != 0 || res.MemAccesses != 18 {
		t.Fatalf("cold 2M translation: %+v, want full 18-access walk", res)
	}
}

func TestPWCAcceleration(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Mediastream)
	u := New(testConfig(0), tenants)
	as := spaces[0]
	if _, err := u.Translate(as.SID, as.Ring, mem.PageShift, true); err != nil {
		t.Fatal(err)
	}
	// Same 4K page again (no IOTLB): the L2 PWC resumes at guest L1,
	// leaving 5 walk accesses.
	res, err := u.Translate(as.SID, as.Ring+8, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCLevel != 2 {
		t.Fatalf("PWCLevel = %d, want 2", res.PWCLevel)
	}
	if res.MemAccesses != 5 {
		t.Fatalf("L2-PWC-hit walk cost %d, want 5", res.MemAccesses)
	}
	// Mailbox page shares the ring's 2 MB granule: also an L2 hit.
	res, err = u.Translate(as.SID, as.Mailbox, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCLevel != 2 || res.MemAccesses != 5 {
		t.Fatalf("mailbox after ring: %+v, want L2 hit costing 5", res)
	}
	// Data pages: first cold (18), second in same 1 GB granule gets an
	// L3 hit: gL2 read + 3-access host walk = 4.
	if _, err := u.Translate(as.SID, as.DataPages[0], mem.HugePageShift, true); err != nil {
		t.Fatal(err)
	}
	res, err = u.Translate(as.SID, as.DataPages[1], mem.HugePageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCLevel != 3 || res.MemAccesses != 4 {
		t.Fatalf("second data page: %+v, want L3 hit costing 4", res)
	}
}

// TestPWCResumeReadsEntry pins that a page-walk-cache hit resumes from
// the table address its entry holds rather than re-deriving it from the
// tables: the hit path is only cheap because it does not walk. Each case
// plants another granule's table address in the entry a translation
// hits; the walk must then go through the planted table and miss the
// answer of the real one.
func TestPWCResumeReadsEntry(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Mediastream)
	as := spaces[0]
	if len(as.InitPages) == 0 || len(as.DataPages) < 2 {
		t.Fatal("mediastream layout lost its init or data pages")
	}
	for _, c := range []struct {
		name                string
		pwcLevel            int
		warm, donor, target uint64 // warm fills the entry target hits; donor lives in another granule
		shift               uint
	}{
		{"L3", 3, as.DataPages[0], as.Ring, as.DataPages[1], mem.GiantPageShift},
		{"L2", 2, as.Ring, as.InitPages[0], as.Mailbox, mem.HugePageShift},
	} {
		t.Run(c.name, func(t *testing.T) {
			u := New(testConfig(0), tenants)
			pwc := u.l3pwc
			if c.pwcLevel == 2 {
				pwc = u.l2pwc
			}
			for _, iova := range []uint64{c.warm, c.donor} {
				if _, err := u.Translate(as.SID, iova, workload.PageShiftOf(iova), true); err != nil {
					t.Fatal(err)
				}
			}
			donor, ok := pwc.Peek(granuleKey(as.SID, c.donor, c.shift))
			if !ok {
				t.Fatal("donor granule has no PWC entry")
			}
			if _, ok := pwc.Peek(granuleKey(as.SID, c.target, c.shift)); !ok {
				t.Fatal("target granule has no PWC entry")
			}
			pwc.Insert(tlb.Entry{Key: granuleKey(as.SID, c.target, c.shift), Value: donor.Value})
			want, err := as.Nested.WalkInto(c.target, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := u.Translate(as.SID, c.target, workload.PageShiftOf(c.target), true)
			if res.PWCLevel != c.pwcLevel {
				t.Fatalf("PWCLevel = %d, want %d", res.PWCLevel, c.pwcLevel)
			}
			if err == nil && res.HPA == want.HPA {
				t.Fatalf("translation through a planted table address found the real HPA %#x: the PWC hit did not resume from its entry", want.HPA)
			}
		})
	}
}

func TestIOTLBHitCostsNothing(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Iperf3)
	u := New(testConfig(8), tenants)
	as := spaces[0]
	if _, err := u.Translate(as.SID, as.Ring, mem.PageShift, true); err != nil {
		t.Fatal(err)
	}
	res, err := u.Translate(as.SID, as.Ring+16, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IOTLBHit {
		t.Fatalf("second access should hit IOTLB: %+v", res)
	}
	if res.MemAccesses != 0 {
		t.Fatalf("IOTLB hit cost %d accesses, want 0", res.MemAccesses)
	}
	want, err := as.Nested.WalkInto(as.Ring+16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPA != want.HPA {
		t.Fatalf("IOTLB hit HPA %#x, want %#x", res.HPA, want.HPA)
	}
}

func TestTenantsIsolatedInCaches(t *testing.T) {
	tenants, spaces := buildTenants(t, 2, workload.Iperf3)
	u := New(testConfig(8), tenants)
	a, b := spaces[0], spaces[1]
	ra, err := u.Translate(a.SID, a.Ring, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := u.Translate(b.SID, b.Ring, mem.PageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if rb.IOTLBHit {
		t.Fatal("tenant B hit tenant A's IOTLB entry for the same gIOVA")
	}
	if ra.HPA == rb.HPA {
		t.Fatal("two tenants translated the same gIOVA to the same hPA")
	}
}

func TestInvalidateForcesRewalk(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Mediastream)
	u := New(testConfig(8), tenants)
	as := spaces[0]
	iova := as.DataPages[0]
	if _, err := u.Translate(as.SID, iova, mem.HugePageShift, true); err != nil {
		t.Fatal(err)
	}
	res, err := u.Translate(as.SID, iova+64, mem.HugePageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IOTLBHit {
		t.Fatal("warm access should hit")
	}
	u.Invalidate(as.SID, iova, mem.HugePageShift)
	res, err = u.Translate(as.SID, iova+128, mem.HugePageShift, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTLBHit {
		t.Fatal("access after invalidate must miss the IOTLB")
	}
}

func TestStatsAccumulate(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Iperf3)
	u := New(testConfig(8), tenants)
	as := spaces[0]
	for i := 0; i < 5; i++ {
		if _, err := u.Translate(as.SID, as.Ring, mem.PageShift, true); err != nil {
			t.Fatal(err)
		}
	}
	s := u.Stats()
	if s.Translations != 5 {
		t.Fatalf("Translations = %d, want 5", s.Translations)
	}
	if s.Walks != 1 {
		t.Fatalf("Walks = %d, want 1 (rest IOTLB hits)", s.Walks)
	}
	if s.IOTLB.Hits != 4 {
		t.Fatalf("IOTLB hits = %d, want 4", s.IOTLB.Hits)
	}
	if s.MemAccesses == 0 {
		t.Fatal("MemAccesses not counted")
	}
}

// TestTranslateUnknownSID pins the context-table check: a SID the tenant
// tables do not hold — past their end, or inside them but unregistered —
// fails to translate before any cache or walk state is touched.
func TestTranslateUnknownSID(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Iperf3)
	tenants.Set(4, nil) // grow the index past SID 1, leaving 2..4 unregistered
	u := New(testConfig(0), tenants)
	for _, sid := range []mem.SID{0, 3, 99} {
		if _, err := u.Translate(sid, workload.RingIOVA, mem.PageShift, true); err == nil {
			t.Fatalf("unregistered SID %d accepted", sid)
		}
	}
	if s := u.Stats(); s.ContextCache.Lookups != 0 || s.Walks != 0 {
		t.Fatalf("failed translations touched the chipset: %d context-cache lookups, %d walks",
			s.ContextCache.Lookups, s.Walks)
	}
	if res, err := u.Translate(1, spaces[0].Ring, mem.PageShift, true); err != nil || res.CCHit {
		t.Fatalf("registered SID 1: CCHit %v, err %v; want a context-cache miss", res.CCHit, err)
	}
}

func TestHistoryRecordRecentDrop(t *testing.T) {
	h := NewHistory(3)
	h.Record(1, 0x1000, 12)
	h.Record(1, 0x2000, 12)
	h.Record(1, 0x1008, 12) // same page as 0x1000: dedups, moves to front
	r := h.Recent(1, 2)
	if len(r) != 2 || r[0].IOVA != 0x1000 || r[1].IOVA != 0x2000 {
		t.Fatalf("Recent = %+v", r)
	}
	h.Record(1, 0x3000, 12)
	h.Record(1, 0x4000, 12) // depth 3: 0x2000 falls off
	r = h.Recent(1, 4)
	if len(r) != 3 || r[0].IOVA != 0x4000 || r[2].IOVA != 0x1000 {
		t.Fatalf("after overflow: %+v", r)
	}
	h.Drop(1, 0x3000, 12)
	r = h.Recent(1, 3)
	if len(r) != 2 {
		t.Fatalf("Drop failed: %+v", r)
	}
	if h.Tenants() != 1 {
		t.Fatalf("Tenants = %d", h.Tenants())
	}
}

func TestHistoryRecordedByTranslate(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Iperf3)
	u := New(testConfig(0), tenants)
	as := spaces[0]
	if _, err := u.Translate(as.SID, as.Ring+8, mem.PageShift, true); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(as.SID, as.DataPages[0]+100, mem.HugePageShift, true); err != nil {
		t.Fatal(err)
	}
	// Prefetch-style translation must not pollute history.
	if _, err := u.Translate(as.SID, as.Mailbox, mem.PageShift, false); err != nil {
		t.Fatal(err)
	}
	r := u.History().Recent(as.SID, 4)
	if len(r) != 2 {
		t.Fatalf("history has %d entries, want 2: %+v", len(r), r)
	}
	if r[0].IOVA != as.DataPages[0] || r[1].IOVA != as.Ring {
		t.Fatalf("history order wrong: %+v", r)
	}
}

func TestPageKeyGranules(t *testing.T) {
	// Same iova, different granules must produce distinct keys.
	a := PageKey(1, workload.DataBase+0x1000, mem.PageShift)
	b := PageKey(1, workload.DataBase+0x1000, mem.HugePageShift)
	if a == b {
		t.Fatal("4K and 2M keys alias")
	}
	// Offsets within a page share the key.
	if PageKey(1, workload.DataBase+100, mem.HugePageShift) != PageKey(1, workload.DataBase+0x1FFFFF, mem.HugePageShift) {
		t.Fatal("offsets within one 2M page produced different keys")
	}
}

func TestInvalidateSIDScoped(t *testing.T) {
	tenants, spaces := buildTenants(t, 2, workload.Mediastream)
	u := New(testConfig(4), tenants)
	for _, as := range spaces {
		if _, err := u.Translate(as.SID, as.Ring, workload.PageShiftOf(as.Ring), true); err != nil {
			t.Fatal(err)
		}
	}
	victim, other := spaces[0], spaces[1]
	if n := u.InvalidateSID(victim.SID); n == 0 {
		t.Fatal("InvalidateSID dropped no chipset state after a translation")
	}
	if got := u.History().AppendRecent(nil, victim.SID, 8); len(got) != 0 {
		t.Fatalf("victim's history survived teardown: %v", got)
	}
	if got := u.History().AppendRecent(nil, other.SID, 8); len(got) == 0 {
		t.Fatal("other tenant's history dropped by a scoped invalidation")
	}
	res, err := u.Translate(other.SID, other.Ring, workload.PageShiftOf(other.Ring), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IOTLBHit {
		t.Fatal("other tenant's IOTLB entry dropped by a scoped invalidation")
	}
	res, err = u.Translate(victim.SID, victim.Ring, workload.PageShiftOf(victim.Ring), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTLBHit {
		t.Fatal("victim's IOTLB entry survived teardown")
	}
}

func TestFlushAllKeepsHistory(t *testing.T) {
	tenants, spaces := buildTenants(t, 2, workload.Mediastream)
	u := New(testConfig(4), tenants)
	for _, as := range spaces {
		if _, err := u.Translate(as.SID, as.Ring, workload.PageShiftOf(as.Ring), true); err != nil {
			t.Fatal(err)
		}
	}
	if n := u.FlushAll(); n == 0 {
		t.Fatal("FlushAll dropped nothing after translations")
	}
	for _, as := range spaces {
		// The per-DID IOVA history lives in main memory, not chipset state:
		// a broadcast invalidation must not touch it.
		if got := u.History().AppendRecent(nil, as.SID, 8); len(got) == 0 {
			t.Fatalf("SID %d history dropped by FlushAll", as.SID)
		}
		res, err := u.Translate(as.SID, as.Ring, workload.PageShiftOf(as.Ring), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.IOTLBHit {
			t.Fatalf("SID %d IOTLB entry survived FlushAll", as.SID)
		}
	}
}

// TestWarmTranslateZeroAllocs pins every walk shape of a warm Translate
// to zero allocations: a full walk, an L2-PWC resume (4 KB pages), an
// L3-PWC resume (2 MB data page), a memoized replay, an L2-resumed walk
// that fills the memo, and an L2-resume memo hit that takes its L3 PWC
// install address from the L3 PWC.
func TestWarmTranslateZeroAllocs(t *testing.T) {
	tenants, spaces := buildTenants(t, 1, workload.Mediastream)
	uncachedCfg := testConfig(0)
	uncachedCfg.MemoEntries = -1
	oneEntryCfg := testConfig(0)
	oneEntryCfg.MemoEntries = 1
	memo := New(testConfig(0), tenants)
	uncached := New(uncachedCfg, tenants)
	as := spaces[0]
	init1, init2 := as.InitPages[1], as.InitPages[2] // one 2 MB granule

	for _, c := range []struct {
		name     string
		u        *IOMMU
		iova     uint64
		shift    uint8
		flush    bool   // empty the chipset caches first: a full walk
		warm     uint64 // first translation of the warm-up; 0 = 2 MB data page 0
		alt      uint64 // when set, calls alternate between iova and alt
		pwcLevel int
		memoHit  bool
	}{
		{"full walk", uncached, as.Ring, mem.PageShift, true, 0, 0, 0, false},
		{"L2-PWC resume, ring page", uncached, as.Ring, mem.PageShift, false, 0, 0, 2, false},
		{"L2-PWC resume, init page", uncached, as.InitPages[1], mem.PageShift, false, 0, 0, 2, false},
		{"L3-PWC resume, 2 MB data page", uncached, as.DataPages[1], mem.HugePageShift, false, 0, 0, 3, false},
		{"memo hit", memo, as.Ring, mem.PageShift, false, 0, 0, 2, true},
		// A one-entry memo: each page's walk evicts the other's entry.
		{"L2-resumed memo fill", New(oneEntryCfg, tenants), init1, mem.PageShift, false, init2, init2, 2, false},
		{"L2-resume memo hit, L3 address from the L3 PWC", New(testConfig(0), tenants), init1, mem.PageShift, false, init2, 0, 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			translate := func() Result {
				if c.flush {
					c.u.FlushAll()
				}
				iova := c.iova
				if c.alt != 0 && calls%2 == 1 {
					iova = c.alt
				}
				calls++
				res, err := c.u.Translate(as.SID, iova, c.shift, true)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			// Warm up: the context cache, the PWCs, the memo and the
			// walk scratch buffers.
			warm := c.warm
			if warm == 0 {
				warm = as.DataPages[0]
			}
			if _, err := c.u.Translate(as.SID, warm, workload.PageShiftOf(warm), true); err != nil {
				t.Fatal(err)
			}
			translate()
			translate()
			before := c.u.MemoStats()
			if res := translate(); res.PWCLevel != c.pwcLevel {
				t.Fatalf("PWCLevel = %d, want %d (%+v)", res.PWCLevel, c.pwcLevel, res)
			}
			after := c.u.MemoStats()
			if gotHit := after.Hits > before.Hits; gotHit != c.memoHit {
				t.Fatalf("memo hit = %v, want %v", gotHit, c.memoHit)
			}
			if c.alt != 0 && after.Fills == before.Fills {
				t.Fatalf("memo not filled: %+v -> %+v", before, after)
			}
			if c.warm != 0 && c.memoHit {
				// The entry holds only what the L2-resumed walk learned,
				// so the L3 PWC install address must come from the L3 PWC.
				ent, live := c.u.memo.slot(as.Nested, c.iova>>mem.PageShift)
				if !live || ent.total != 0 || ent.tbl2OK || !ent.tbl1OK {
					t.Fatalf("memo entry %+v (live %v), want only the guest L1 resume point", *ent, live)
				}
				if _, ok := c.u.l3pwc.Peek(granuleKey(as.SID, c.iova, mem.GiantPageShift)); !ok {
					t.Fatal("no L3 PWC entry for the granule")
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { translate() }); allocs != 0 {
				t.Fatalf("warm translation allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
