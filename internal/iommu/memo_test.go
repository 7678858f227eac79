package iommu

import (
	"math/rand"
	"testing"
	"unsafe"

	"hypertrio/internal/mem"
	"hypertrio/internal/tlb"
	"hypertrio/internal/workload"
)

// driveMemoDifferential builds two identical worlds — one IOMMU with
// walk memoization at its default size, one with it disabled — and
// drives both through the same randomized interleaving of translations,
// mid-flight remaps, page/tenant invalidations, driver unmaps, 2 MB
// pages re-mapped as 4 KB pages, and global flushes. Every translation
// must return an identical Result (HPA, hit flags, PWC level, access
// count) and identical error disposition, and the final Stats must match
// field for field: memoization is an engine optimization, not a modeled
// structure, so it may never change a single observable number.
//
// sidsPerTable SIDs are registered on each tenant table, the way
// core.NewSystemSource shares one template table among the tenants of a
// ring slot; translations and invalidations pick any SID of the table,
// and mutations hit every SID on it.
//
// Both worlds resume page-walk-cache hits from the cached table address,
// so the differential alone cannot catch a wrong one. After every
// successful translation each world's L2/L3 PWC entries for the page's
// granules are therefore checked against a silent walk of the tables.
func driveMemoDifferential(t *testing.T, cfg Config, seed int64, sidsPerTable int) {
	t.Helper()
	const nTenants = 3

	tenantsM, spacesM := buildTenants(t, nTenants, workload.Mediastream)
	sids := shareTables(tenantsM, spacesM, sidsPerTable)
	uM := New(cfg, tenantsM)

	tenantsU, spacesU := buildTenants(t, nTenants, workload.Mediastream)
	shareTables(tenantsU, spacesU, sidsPerTable)
	cfgU := cfg
	cfgU.MemoEntries = -1
	uU := New(cfgU, tenantsU)

	rng := rand.New(rand.NewSource(seed))

	// Per-tenant page lists shared by both worlds (the builds are
	// deterministic, so the layouts agree): the 2 MB data pages still
	// mapped huge, and the 4 KB pages carved out of converted ones.
	huge := make([][]uint64, nTenants)
	carved := make([][]uint64, nTenants)
	conversions := 0
	for k, as := range spacesM {
		huge[k] = append([]uint64(nil), as.DataPages...)
	}

	// pick returns a translatable (iova, shift) of tenant k.
	pick := func(k int) (uint64, uint8) {
		as := spacesM[k]
		switch rng.Intn(5) {
		case 0:
			return as.Ring + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		case 1:
			return as.Mailbox + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		case 2:
			j := rng.Intn(len(as.InitPages))
			return as.InitPages[j] + uint64(rng.Intn(mem.PageSize)), mem.PageShift
		case 3:
			if len(carved[k]) > 0 {
				j := rng.Intn(len(carved[k]))
				return carved[k][j] + uint64(rng.Intn(mem.PageSize)), mem.PageShift
			}
		}
		j := rng.Intn(len(huge[k]))
		return huge[k][j] + uint64(rng.Intn(mem.HugePageSize)), mem.HugePageShift
	}

	// pwcAgrees checks that every PWC entry covering iova holds the host
	// address of the guest table it resumes at, as a silent walk finds it.
	// A translation that walked (no IOTLB hit) must also have left an
	// entry for every such table: the L3 one, and for a 4 KB page the L2.
	var pwcChecks [2]int // L2, L3 entries checked
	pwcAgrees := func(u *IOMMU, nt *mem.NestedTable, world string, sid mem.SID, iova uint64, shift uint8, res Result, op int) {
		for i, c := range []struct {
			cache *tlb.Cache
			shift uint
			level int
		}{{u.l2pwc, mem.HugePageShift, 1}, {u.l3pwc, mem.GiantPageShift, 2}} {
			want, err := nt.TableHPA(iova, c.level)
			e, ok := c.cache.Peek(granuleKey(sid, iova, c.shift))
			if !ok {
				if installed := !res.IOTLBHit && (c.level == 2 || shift == mem.PageShift); installed && err == nil {
					t.Fatalf("op %d: %s world: SID %d iova %#x: walk left no %s entry for the guest L%d table",
						op, world, sid, iova, c.cache.Config().Name, c.level)
				}
				continue
			}
			if err != nil || mem.Addr(e.Value) != want {
				t.Fatalf("op %d: %s world: SID %d iova %#x: %s entry %#x, guest L%d table at %#x (%v)",
					op, world, sid, iova, c.cache.Config().Name, e.Value, c.level, uint64(want), err)
			}
			pwcChecks[i]++
		}
	}

	// sidOf picks the SID a command for table k arrives on.
	sidOf := func(k int) mem.SID {
		if len(sids[k]) == 1 {
			return sids[k][0]
		}
		return sids[k][rng.Intn(len(sids[k]))]
	}

	translate := func(k int, iova uint64, shift uint8, op int) {
		sid := sidOf(k)
		rM, errM := uM.Translate(sid, iova, shift, true)
		rU, errU := uU.Translate(sid, iova, shift, true)
		if (errM == nil) != (errU == nil) {
			t.Fatalf("op %d: error disposition diverged: memo=%v uncached=%v", op, errM, errU)
		}
		if rM != rU {
			t.Fatalf("op %d: SID %d iova %#x: memoized %+v, uncached %+v", op, sid, iova, rM, rU)
		}
		if errM == nil {
			pwcAgrees(uM, spacesM[k].Nested, "memoized", sid, iova, shift, rM, op)
			pwcAgrees(uU, spacesU[k].Nested, "uncached", sid, iova, shift, rU, op)
		}
	}

	// both applies one table mutation to tenant k in both worlds.
	both := func(k int, mutate func(nt *mem.NestedTable) error) {
		t.Helper()
		if err := mutate(spacesM[k].Nested); err != nil {
			t.Fatal(err)
		}
		if err := mutate(spacesU[k].Nested); err != nil {
			t.Fatal(err)
		}
	}
	mapIOVA := func(iova uint64, shift uint) func(*mem.NestedTable) error {
		return func(nt *mem.NestedTable) error {
			_, _, err := nt.MapIOVA(iova, shift)
			return err
		}
	}
	unmapIOVA := func(iova uint64, shift uint) func(*mem.NestedTable) error {
		return func(nt *mem.NestedTable) error {
			_, err := nt.UnmapIOVA(iova, shift)
			return err
		}
	}
	invalidate := func(k int, iova uint64, shift uint8) {
		sid := sidOf(k)
		uM.Invalidate(sid, iova, shift)
		uU.Invalidate(sid, iova, shift)
	}

	const ops = 4000
	for op := 0; op < ops; op++ {
		k := rng.Intn(nTenants)
		asM := spacesM[k]
		switch r := rng.Intn(20); {
		case r < 14: // translate
			iova, shift := pick(k)
			translate(k, iova, shift, op)
		case r < 16 && rng.Intn(8) == 0 && len(huge[k]) > 1:
			// Re-map a 2 MB data page as 4 KB pages: a guest L1 table is
			// created where a leaf stood, under an L3 PWC entry that may
			// already be cached.
			j := rng.Intn(len(huge[k]))
			base := huge[k][j]
			huge[k] = append(huge[k][:j], huge[k][j+1:]...)
			both(k, unmapIOVA(base, mem.HugePageShift))
			invalidate(k, base, mem.HugePageShift)
			for _, slot := range rng.Perm(mem.EntriesPerTable)[:4] {
				iova := base + uint64(slot)<<mem.PageShift
				both(k, mapIOVA(iova, mem.PageShift))
				carved[k] = append(carved[k], iova)
			}
			conversions++
			translate(k, carved[k][len(carved[k])-1], mem.PageShift, op)
		case r < 16: // mid-flight remap of a data page onto a fresh frame
			iova := huge[k][rng.Intn(len(huge[k]))]
			both(k, mapIOVA(iova, mem.HugePageShift))
			// Half the remaps close the stale window immediately; the other
			// half leave the chipset serving the old frame until the next
			// invalidation — identically on both sides.
			if rng.Intn(2) == 0 {
				invalidate(k, iova, mem.HugePageShift)
			}
			translate(k, iova+uint64(rng.Intn(mem.HugePageSize)), mem.HugePageShift, op)
		case r < 17: // driver unmap + invalidation, then remap the page back
			iova := asM.InitPages[rng.Intn(len(asM.InitPages))]
			both(k, unmapIOVA(iova, mem.PageShift))
			invalidate(k, iova, mem.PageShift)
			// The unmapped page must fail (or stale-hit) identically.
			translate(k, iova, mem.PageShift, op)
			both(k, mapIOVA(iova, mem.PageShift))
			translate(k, iova, mem.PageShift, op)
		case r < 19: // tenant teardown
			sid := sidOf(k)
			nM := uM.InvalidateSID(sid)
			nU := uU.InvalidateSID(sid)
			if nM != nU {
				t.Fatalf("op %d: InvalidateSID dropped %d vs %d entries", op, nM, nU)
			}
		default: // global flush
			nM := uM.FlushAll()
			nU := uU.FlushAll()
			if nM != nU {
				t.Fatalf("op %d: FlushAll dropped %d vs %d entries", op, nM, nU)
			}
		}
	}

	if pwcChecks[0] == 0 || pwcChecks[1] == 0 {
		t.Fatalf("PWC resume addresses never checked: %d L2, %d L3 entries", pwcChecks[0], pwcChecks[1])
	}
	if conversions == 0 {
		t.Fatal("no 2 MB page was re-mapped as 4 KB pages")
	}
	if sM, sU := uM.Stats(), uU.Stats(); sM != sU {
		t.Fatalf("final stats diverged:\nmemoized: %+v\nuncached: %+v", sM, sU)
	}
	ms := uM.MemoStats()
	if !ms.Enabled || ms.Fills == 0 {
		t.Fatalf("memoized run never exercised the memo: %+v", ms)
	}
	if cfg.IOTLB.Sets == 0 && ms.Hits == 0 {
		// Without an IOTLB every repeat translation reaches the memo, so a
		// hit-free run means the epochs never validated anything. (With an
		// IOTLB in front, the memo sees only that cache's misses, which
		// mostly follow a remap or an unmap, so hits are legitimately
		// scarce there.)
		t.Fatalf("IOTLB-less memoized run never hit the memo: %+v", ms)
	}
	if uU.MemoStats().Enabled {
		t.Fatal("MemoEntries=-1 did not disable memoization")
	}
}

// TestMemoMatchesUncachedUnderMutation: no IOTLB in front, so every
// translation reaches the walk path and the memo is consulted (and must
// revalidate) on each one.
func TestMemoMatchesUncachedUnderMutation(t *testing.T) {
	driveMemoDifferential(t, testConfig(0), 1, 1)
}

// TestMemoMatchesUncachedWithIOTLB: with an IOTLB in front the memo only
// sees that cache's misses, and invalidations must keep all three layers
// (IOTLB, PWCs, memo) mutually coherent.
func TestMemoMatchesUncachedWithIOTLB(t *testing.T) {
	driveMemoDifferential(t, testConfig(8), 2, 1)
}

// TestMemoMatchesUncachedTinyL3PWC: a one-entry L3 PWC is evicted all the
// time, so L2-PWC hits often find their 1 GB granule uncached and take
// the install path's silent-walk fallback for the L3 entry.
func TestMemoMatchesUncachedTinyL3PWC(t *testing.T) {
	cfg := testConfig(0)
	cfg.L3PWC = tlb.Config{Name: "l3pwc", Sets: 1, Ways: 1, Policy: tlb.LRU}
	driveMemoDifferential(t, cfg, 3, 1)
}

// TestMemoMatchesUncachedSharedTables: four SIDs per table, so walks of
// one SID serve memo lookups of the others, and remaps and unmaps of a
// shared table must stop every SID on it from replaying stale outcomes.
func TestMemoMatchesUncachedSharedTables(t *testing.T) {
	driveMemoDifferential(t, testConfig(0), 4, 4)
}

// shareTables registers perTable-1 further SIDs on each tenant's table
// (SID k+1+j*len(spaces) on table k, as core.NewSystemSource assigns
// tenants to ring-slot templates) and returns each table's SIDs.
func shareTables(tenants *mem.TenantTables, spaces []*workload.AddressSpace, perTable int) [][]mem.SID {
	sids := make([][]mem.SID, len(spaces))
	for k, as := range spaces {
		sids[k] = []mem.SID{as.SID}
		for j := 1; j < perTable; j++ {
			sid := mem.SID(k + 1 + j*len(spaces))
			tenants.Set(sid, as.Nested)
			sids[k] = append(sids[k], sid)
		}
	}
	return sids
}

// TestMemoTableKeyContract pins what the memo is keyed and validated by:
// the walked table (its host root) and that table's epoch, nothing else.
// Table A is shared by SIDs 1 and 2; table B, SID 3's, has the same
// guest layout (and guest root gPA) but its own host tables. Every
// translation runs against a memo-off twin and must return the same
// Result.
func TestMemoTableKeyContract(t *testing.T) {
	build := func(memoEntries int) (*IOMMU, *workload.AddressSpace, *workload.AddressSpace) {
		t.Helper()
		host := mem.NewSpace("host", 0x1_0000_0000, 0)
		tenants := mem.NewTenantTables(3)
		p := workload.ProfileFor(workload.Mediastream)
		a, err := workload.BuildAddressSpaceLevels(p, 1, host, nil, mem.Levels)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.BuildAddressSpaceLevels(p, 1, host, nil, mem.Levels)
		if err != nil {
			t.Fatal(err)
		}
		tenants.Set(1, a.Nested)
		tenants.Set(2, a.Nested)
		tenants.Set(3, b.Nested)
		cfg := testConfig(0) // no IOTLB: every translation consults the memo
		cfg.MemoEntries = memoEntries
		return New(cfg, tenants), a, b
	}
	u, a, b := build(0)
	twin, ta, tb := build(-1)
	if a.Nested.GuestRoot() != b.Nested.GuestRoot() || a.Nested.HostRoot() == b.Nested.HostRoot() {
		t.Fatalf("tables A and B: guest roots %#x/%#x, host roots %#x/%#x; want equal guest, distinct host",
			a.Nested.GuestRoot(), b.Nested.GuestRoot(), a.Nested.HostRoot(), b.Nested.HostRoot())
	}

	// translate runs one translation in both worlds and reports whether
	// the memo hit.
	translate := func(sid mem.SID, iova uint64, shift uint8) (Result, bool) {
		t.Helper()
		before := u.MemoStats()
		got, err := u.Translate(sid, iova, shift, true)
		want, werr := twin.Translate(sid, iova, shift, true)
		if err != nil || werr != nil || got != want {
			t.Fatalf("SID %d iova %#x: memoized %+v (%v), memo off %+v (%v)", sid, iova, got, err, want, werr)
		}
		after := u.MemoStats()
		if after.Hits+after.Misses != before.Hits+before.Misses+1 {
			t.Fatalf("SID %d iova %#x: %+v -> %+v, want one lookup", sid, iova, before, after)
		}
		return got, after.Hits > before.Hits
	}
	expect := func(what string, sid mem.SID, iova uint64, shift uint8, hit bool) Result {
		t.Helper()
		res, got := translate(sid, iova, shift)
		if got != hit {
			t.Fatalf("%s: SID %d iova %#x: memo hit = %v, want %v", what, sid, iova, got, hit)
		}
		return res
	}
	// mutate applies one table mutation in both worlds.
	mutate := func(f func(nt *mem.NestedTable) error, tables ...*mem.NestedTable) {
		t.Helper()
		for _, nt := range tables {
			if err := f(nt); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sharing: SID 1's full walk serves SID 2, whose context and PWCs
	// are cold, so its lookup is a full walk's too.
	expect("first walk", 1, a.Ring, mem.PageShift, false)
	expect("SID 2 on SID 1's table", 2, a.Ring, mem.PageShift, true)

	// Invalidation commands drop hardware state, not table state: the
	// entry stays live, whatever depth the next walk starts at.
	u.Invalidate(1, a.Ring, mem.PageShift)
	twin.Invalidate(1, a.Ring, mem.PageShift)
	expect("after Invalidate", 1, a.Ring, mem.PageShift, true)
	u.InvalidateSID(1)
	twin.InvalidateSID(1)
	expect("after InvalidateSID", 1, a.Ring, mem.PageShift, true)
	u.FlushAll()
	twin.FlushAll()
	expect("after FlushAll", 2, a.Ring, mem.PageShift, true)

	// Same guest layout, different table: B's walk of the same gIOVA
	// must not replay A's entry.
	resB := expect("table B, same gIOVA", 3, b.Ring, mem.PageShift, false)
	resA := expect("table A again", 1, a.Ring, mem.PageShift, true)
	if resA.HPA == resB.HPA {
		t.Fatalf("tables A and B translate %#x to the same HPA %#x", a.Ring, resA.HPA)
	}

	// A mutation of shared table A misses for every SID on it and leaves
	// B's entries live; one of B then leaves A's live.
	init0 := a.InitPages[0]
	for _, m := range []struct {
		name string
		f    func(nt *mem.NestedTable) error
	}{
		{"MapIOVA", func(nt *mem.NestedTable) error { _, _, err := nt.MapIOVA(0x1000_0000, mem.PageShift); return err }},
		{"Remap", func(nt *mem.NestedTable) error { _, _, err := nt.MapIOVA(init0, mem.PageShift); return err }},
		{"UnmapIOVA", func(nt *mem.NestedTable) error { _, err := nt.UnmapIOVA(init0, mem.PageShift); return err }},
	} {
		// Full walks, then PWC resumes, each SID on its own page.
		u.FlushAll()
		twin.FlushAll()
		for _, w := range []struct {
			sid  mem.SID
			iova uint64
		}{{1, a.Ring}, {2, a.Mailbox}, {3, b.Ring}} {
			translate(w.sid, w.iova, mem.PageShift)
		}
		mutate(m.f, a.Nested, ta.Nested)
		expect(m.name+" of A, SID 1", 1, a.Ring, mem.PageShift, false)
		expect(m.name+" of A, SID 2", 2, a.Mailbox, mem.PageShift, false)
		expect(m.name+" of A, table B", 3, b.Ring, mem.PageShift, true)
		mutate(m.f, b.Nested, tb.Nested)
		expect(m.name+" of B, table B", 3, b.Ring, mem.PageShift, false)
		expect(m.name+" of B, table A", 1, a.Ring, mem.PageShift, true)
	}

	// An L2-resumed walk fills only what it learned. Init pages 1 and 2
	// share a 2 MB granule: SID 2's full walk of page 2 leaves it the L2
	// PWC entry its first walk of page 1 resumes from.
	init1 := a.InitPages[1]
	u.FlushAll()
	twin.FlushAll()
	translate(2, a.InitPages[2], mem.PageShift)
	if res := expect("L2-resumed fill", 2, init1, mem.PageShift, false); res.PWCLevel != 2 {
		t.Fatalf("init page 1 for SID 2: PWCLevel %d, want 2", res.PWCLevel)
	}
	expect("L2-resume lookup after L2-resumed fill", 2, init1, mem.PageShift, true)
	if res := expect("full-walk lookup after L2-resumed fill", 1, init1, mem.PageShift, false); res.PWCLevel != 0 {
		t.Fatalf("init page 1 for SID 1: PWCLevel %d, want 0", res.PWCLevel)
	}
	u.FlushAll()
	twin.FlushAll()
	expect("full-walk lookup after full walk", 1, init1, mem.PageShift, true)
}

// TestMemoEntryFitsCacheLine pins the memo entry to one 64-byte cache
// line, so the default table is 1 MiB.
func TestMemoEntryFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(memoEntry{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(memoEntry{}) = %d, want 64", got)
	}
}
