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
// Both worlds resume page-walk-cache hits from the cached table address,
// so the differential alone cannot catch a wrong one. After every
// successful translation each world's L2/L3 PWC entries for the page's
// granules are therefore checked against a silent walk of the tables.
func driveMemoDifferential(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	const nTenants = 3

	ctM, tenantsM, spacesM := buildTenants(t, nTenants, workload.Mediastream)
	uM := New(cfg, ctM, tenantsM)

	ctU, tenantsU, spacesU := buildTenants(t, nTenants, workload.Mediastream)
	cfgU := cfg
	cfgU.MemoEntries = -1
	uU := New(cfgU, ctU, tenantsU)

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

	translate := func(k int, iova uint64, shift uint8, op int) {
		sid := spacesM[k].SID
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
		uM.Invalidate(spacesM[k].SID, iova, shift)
		uU.Invalidate(spacesU[k].SID, iova, shift)
	}

	const ops = 4000
	for op := 0; op < ops; op++ {
		k := rng.Intn(nTenants)
		asM, asU := spacesM[k], spacesU[k]
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
			nM := uM.InvalidateSID(asM.SID)
			nU := uU.InvalidateSID(asU.SID)
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
		// IOTLB in front, repeat walks of one page mostly follow an
		// invalidation — which bumps the epoch — so hits are legitimately
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
	driveMemoDifferential(t, testConfig(0), 1)
}

// TestMemoMatchesUncachedWithIOTLB: with an IOTLB in front the memo only
// sees that cache's misses, and invalidations must keep all three layers
// (IOTLB, PWCs, memo) mutually coherent.
func TestMemoMatchesUncachedWithIOTLB(t *testing.T) {
	driveMemoDifferential(t, testConfig(8), 2)
}

// TestMemoMatchesUncachedTinyL3PWC: a one-entry L3 PWC is evicted all the
// time, so L2-PWC hits often find their 1 GB granule uncached and take
// the install path's silent-walk fallback for the L3 entry.
func TestMemoMatchesUncachedTinyL3PWC(t *testing.T) {
	cfg := testConfig(0)
	cfg.L3PWC = tlb.Config{Name: "l3pwc", Sets: 1, Ways: 1, Policy: tlb.LRU}
	driveMemoDifferential(t, cfg, 3)
}

// TestMemoEpochInvalidation pins the three invalidation channels one by
// one: a table mutation (epoch), a per-SID invalidation and a global
// flush must each kill a memoized walk, while an unrelated tenant's
// mutation must not.
func TestMemoEpochInvalidation(t *testing.T) {
	ct, tenants, spaces := buildTenants(t, 2, workload.Mediastream)
	u := New(testConfig(0), ct, tenants) // no IOTLB: every translate consults the memo
	a, b := spaces[0], spaces[1]

	warm := func(as *workload.AddressSpace) MemoStats {
		t.Helper()
		if _, err := u.Translate(as.SID, as.Ring, mem.PageShift, true); err != nil {
			t.Fatal(err)
		}
		return u.MemoStats()
	}
	// refill restores a fresh, valid memo entry for as.Ring: the flush
	// empties the PWCs (a PWC-resumed rewalk never refills the memo — only
	// a full walk does), so the next translate is a full walk that fills.
	refill := func(as *workload.AddressSpace) {
		t.Helper()
		u.FlushAll()
		before := u.MemoStats()
		after := warm(as)
		if after.Fills != before.Fills+1 {
			t.Fatalf("full walk after flush did not refill: %+v -> %+v", before, after)
		}
	}
	expect := func(as *workload.AddressSpace, what string, hit bool) {
		t.Helper()
		before := u.MemoStats()
		after := warm(as)
		if hit && after.Hits != before.Hits+1 {
			t.Fatalf("%s: expected a memo hit: %+v -> %+v", what, before, after)
		}
		if !hit && after.Misses != before.Misses+1 {
			t.Fatalf("%s: expected a memo miss: %+v -> %+v", what, before, after)
		}
	}

	warm(a) // first full walk fills
	expect(a, "steady state", true)
	expect(a, "steady state", true)

	// Channel 1: a table mutation anywhere in tenant A's tables (a map of
	// an otherwise-unused gIOVA region) advances A's table epoch.
	if _, _, err := a.Nested.MapIOVA(0x1000_0000, mem.PageShift); err != nil {
		t.Fatal(err)
	}
	expect(a, "table mutation", false)

	// An unrelated tenant's mutation must NOT invalidate A's entry.
	refill(a)
	if _, _, err := b.Nested.MapIOVA(0x1000_0000, mem.PageShift); err != nil {
		t.Fatal(err)
	}
	expect(a, "unrelated tenant's mutation", true)

	// Channel 2: per-SID invalidation.
	u.InvalidateSID(a.SID)
	expect(a, "InvalidateSID", false)

	// ...which must not have touched tenant B either.
	refill(b)
	u.InvalidateSID(a.SID)
	expect(b, "other tenant's InvalidateSID", true)

	// Channel 3: a global flush kills every tenant's entries.
	refill(a)
	refill(b)
	u.FlushAll()
	expect(a, "FlushAll (tenant A)", false)
	expect(b, "FlushAll (tenant B)", false)
}

// TestMemoEntryFitsCacheLine pins the memo entry to one 64-byte cache
// line, so the default table is 1 MiB.
func TestMemoEntryFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(memoEntry{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(memoEntry{}) = %d, want 64", got)
	}
}
