package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceAllocAlignment(t *testing.T) {
	s := NewSpace("t", 0x1000, 0)
	a := s.AllocFrame(PageShift)
	if a != 0x1000 {
		t.Fatalf("first frame at %#x, want 0x1000", uint64(a))
	}
	h := s.AllocFrame(HugePageShift)
	if uint64(h)%HugePageSize != 0 {
		t.Fatalf("huge frame %#x not 2MB aligned", uint64(h))
	}
	b := s.AllocFrame(PageShift)
	if b <= h {
		t.Fatalf("bump allocator went backwards: %#x after %#x", uint64(b), uint64(h))
	}
}

func TestSpaceLimit(t *testing.T) {
	s := NewSpace("t", 0x1000, 0x3000)
	s.AllocFrame(PageShift)
	s.AllocFrame(PageShift)
	defer func() {
		if recover() == nil {
			t.Fatal("allocation past limit did not panic")
		}
	}()
	s.AllocFrame(PageShift)
}

func TestSpaceReadWriteEntry(t *testing.T) {
	s := NewSpace("t", 0, 0)
	tb := s.AllocTable()
	if err := s.WriteEntry(tb+8*7, 0xdeadbeef000|ptePresent); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadEntry(tb + 8*7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef000|ptePresent {
		t.Fatalf("read %#x", v)
	}
	if _, err := s.ReadEntry(0x999000); err == nil {
		t.Fatal("read of unregistered table page should fail")
	}
}

// TestSpaceAliasSharesStorage pins AliasTable: a write through the alias
// is visible at the source page and the reverse, aliasing an address
// that is not a table page errors, and registering a page twice panics.
func TestSpaceAliasSharesStorage(t *testing.T) {
	guest := NewSpace("guest", 0x40000000, 0)
	host := NewSpace("host", 0x100000000, 0)
	src := guest.AllocTable()
	alias := host.AllocFrame(PageShift)
	if err := host.AliasTable(alias, guest, src+0x18); err != nil {
		t.Fatal(err)
	}
	if err := host.WriteEntry(alias+8, 0xa000|ptePresent); err != nil {
		t.Fatal(err)
	}
	if v, err := guest.ReadEntry(src + 8); err != nil || v != 0xa000|ptePresent {
		t.Fatalf("source reads %#x (%v) after a write through the alias", v, err)
	}
	if err := guest.WriteEntry(src+16, 0xb000|ptePresent); err != nil {
		t.Fatal(err)
	}
	if v, err := host.ReadEntry(alias + 16); err != nil || v != 0xb000|ptePresent {
		t.Fatalf("alias reads %#x (%v) after a write at the source", v, err)
	}
	if host.TableCount() != 1 || guest.TableCount() != 1 {
		t.Fatalf("table counts host %d, guest %d; want 1 each", host.TableCount(), guest.TableCount())
	}
	if err := host.AliasTable(host.AllocFrame(PageShift), guest, guest.AllocFrame(PageShift)); err == nil {
		t.Fatal("aliasing a data frame accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a table page twice did not panic")
		}
	}()
	_ = host.AliasTable(alias, guest, src)
}

// walk is a full single-dimension walk of va from pt's root.
func walk(pt *PageTable, va uint64) (WalkResult, error) {
	return pt.WalkFromInto(va, pt.levels, pt.root, nil)
}

func TestPageTableMapWalk4K(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if err := pt.Map(0x7f0000123000, 0xabc000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := walk(pt, 0x7f0000123abc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0xabcabc {
		t.Fatalf("PA = %#x, want 0xabcabc", res.PA)
	}
	if res.PageShift != PageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, PageShift)
	}
	if len(res.Accesses) != 4 {
		t.Fatalf("4K walk made %d accesses, want 4", len(res.Accesses))
	}
	for i, a := range res.Accesses {
		if a.Level != 4-i {
			t.Fatalf("access %d at level %d, want %d", i, a.Level, 4-i)
		}
	}
}

func TestPageTableMapWalk2M(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if err := pt.Map(0xbbe00000, 0x40000000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	res, err := walk(pt, 0xbbe12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x40012345 {
		t.Fatalf("PA = %#x, want 0x40012345", res.PA)
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, HugePageShift)
	}
	if len(res.Accesses) != 3 {
		t.Fatalf("2M walk made %d accesses, want 3", len(res.Accesses))
	}
}

func TestPageTableNotMapped(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	_, err := walk(pt, 0x1234000)
	var nm *NotMappedError
	if !errors.As(err, &nm) {
		t.Fatalf("err = %v, want NotMappedError", err)
	}
	if nm.Level != 4 {
		t.Fatalf("miss at level %d, want 4 (empty table)", nm.Level)
	}
}

func TestPageTableMisalignedMap(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if err := pt.Map(0x1001, 0x2000, PageShift); err == nil {
		t.Fatal("misaligned va accepted")
	}
	if err := pt.Map(0x1000, 0x2001, PageShift); err == nil {
		t.Fatal("misaligned pa accepted")
	}
	if err := pt.Map(0x1000, 0x2000, 13); err == nil {
		t.Fatal("bogus page shift accepted")
	}
}

func TestPageTableHugeConflict(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if err := pt.Map(0x40000000, 0x1000, PageShift); err != nil {
		t.Fatal(err)
	}
	// A fine mapping exists under this 2MB region; huge map must not
	// silently clobber the subtree.
	if err := pt.Map(0x40000000, 0x200000, HugePageShift); err != nil {
		t.Fatalf("huge map over table: %v", err)
	}
	// Walking now hits the huge leaf.
	res, err := walk(pt, 0x40000123)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want huge", res.PageShift)
	}
	// But mapping 4K under an existing huge leaf errors.
	if err := pt.Map(0x40001000, 0x9000, PageShift); err == nil {
		t.Fatal("4K map under huge leaf accepted")
	}
}

// Property: random (va, pa) mappings round-trip through a walk.
func TestPropertyMapWalkRoundTrip(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	mapped := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		va := uint64(rng.Int63n(1<<47)) &^ (PageSize - 1)
		if _, dup := mapped[va]; dup {
			continue
		}
		pa := uint64(rng.Int63n(1<<40)) &^ (PageSize - 1)
		if err := pt.Map(va, pa, PageShift); err != nil {
			t.Fatal(err)
		}
		mapped[va] = pa
	}
	for va, pa := range mapped {
		off := uint64(rng.Intn(PageSize))
		res, err := walk(pt, va|off)
		if err != nil {
			t.Fatalf("walk %#x: %v", va, err)
		}
		if res.PA != pa|off {
			t.Fatalf("walk %#x = %#x, want %#x", va|off, res.PA, pa|off)
		}
	}
}

func newTestNested(t *testing.T) (*NestedTable, *Space) {
	t.Helper()
	host := NewSpace("host", 0x100000000, 0)
	nt, err := NewNestedTableLevels("tenant0", 0x40000000, host, Levels)
	if err != nil {
		t.Fatal(err)
	}
	return nt, host
}

func TestNestedWalk4KAccessCount(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.WalkInto(0x34800040, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's count for a 4KB two-dimensional 4-level walk: 24.
	if len(res.Accesses) != 24 {
		t.Fatalf("nested 4K walk made %d accesses, want 24", len(res.Accesses))
	}
	guestReads := 0
	for _, a := range res.Accesses {
		if a.Kind == GuestEntry {
			guestReads++
		}
	}
	if guestReads != 4 {
		t.Fatalf("guest entry reads = %d, want 4", guestReads)
	}
}

func TestNestedWalk2MAccessCount(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0xbbe00000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.WalkInto(0xbbe54321, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Root resolution host walk (4) + 3 guest levels x (1 guest read +
	// 4 host accesses for the next table, except the final data page is
	// a 2 MB host mapping: 3 accesses) = 4 + 5 + 5 + 1 + 3 = 18.
	if len(res.Accesses) != 18 {
		t.Fatalf("nested 2M walk made %d accesses, want 18", len(res.Accesses))
	}
	if res.PageShift != HugePageShift {
		t.Fatalf("PageShift = %d, want %d", res.PageShift, HugePageShift)
	}
}

func TestNestedWalkTranslation(t *testing.T) {
	nt, _ := newTestNested(t)
	gpa, hpa, err := nt.MapIOVA(0xbbe00000, HugePageShift)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nt.WalkInto(0xbbe00000+0x1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPA != uint64(gpa)+0x1234 {
		t.Fatalf("GPA = %#x, want %#x", res.GPA, uint64(gpa)+0x1234)
	}
	if res.HPA != uint64(hpa)+0x1234 {
		t.Fatalf("HPA = %#x, want %#x", res.HPA, uint64(hpa)+0x1234)
	}
}

func TestNestedWalkFromPartial(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	full, err := nt.WalkInto(0x34800040, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Resume from guest L2 (as after an L3 page-walk-cache hit).
	tbl, err := nt.TableHPA(0x34800040, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := nt.WalkFromInto(0x34800040, 2, tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.HPA != full.HPA {
		t.Fatalf("partial walk HPA %#x != full walk %#x", part.HPA, full.HPA)
	}
	// Remaining accesses: gL2 read (1) + host for gL1 table (4) + gL1
	// read (1) + final host walk (4) = 10.
	if len(part.Accesses) != 10 {
		t.Fatalf("partial walk from L2 made %d accesses, want 10", len(part.Accesses))
	}
	// Resume from guest L1 (as after an L2 page-walk-cache hit).
	tbl1, err := nt.TableHPA(0x34800040, 1)
	if err != nil {
		t.Fatal(err)
	}
	part1, err := nt.WalkFromInto(0x34800040, 1, tbl1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part1.HPA != full.HPA {
		t.Fatalf("L1 partial walk HPA %#x != full %#x", part1.HPA, full.HPA)
	}
	if len(part1.Accesses) != 5 {
		t.Fatalf("partial walk from L1 made %d accesses, want 5", len(part1.Accesses))
	}
}

func TestNestedPartial2M(t *testing.T) {
	nt, _ := newTestNested(t)
	if _, _, err := nt.MapIOVA(0xbbe00000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	full, err := nt.WalkInto(0xbbe00040, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := nt.TableHPA(0xbbe00040, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := nt.WalkFromInto(0xbbe00040, 2, tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.HPA != full.HPA {
		t.Fatalf("partial 2M HPA %#x != full %#x", part.HPA, full.HPA)
	}
	// gL2 leaf read (1) + final host walk of a 2 MB host page (3) = 4.
	if len(part.Accesses) != 4 {
		t.Fatalf("partial 2M walk made %d accesses, want 4", len(part.Accesses))
	}
}

// TestTableHPAIsSilent pins that TableHPA only reads: it leaves the
// epoch alone and names the table page a full walk reads its guest
// level-2 entry from.
func TestTableHPAIsSilent(t *testing.T) {
	nt, _ := newTestNested(t)
	const iova = 0x34800000
	if _, _, err := nt.MapIOVA(iova, PageShift); err != nil {
		t.Fatal(err)
	}
	epoch := nt.Epoch()
	hpa, err := nt.TableHPA(iova, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Epoch() != epoch {
		t.Fatalf("TableHPA changed the epoch: %d -> %d", epoch, nt.Epoch())
	}
	full, err := nt.WalkInto(iova, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range full.Accesses {
		if a.Kind == GuestEntry && a.GuestLevel == 2 {
			if got := a.HostAddr &^ (PageSize - 1); got != hpa {
				t.Fatalf("TableHPA = %#x, full walk read the level-2 entry from %#x", uint64(hpa), uint64(got))
			}
			return
		}
	}
	t.Fatal("full walk read no guest level-2 entry")
}

// Property: for random nested mappings, walk translation equals the
// allocator's record and access counts match the paper's arithmetic.
func TestPropertyNestedRoundTrip(t *testing.T) {
	host := NewSpace("host", 0x100000000, 0)
	nt, err := NewNestedTableLevels("t", 0x40000000, host, Levels)
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		hpa   Addr
		shift uint
	}
	mapped := make(map[uint64]m)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		shift := uint(PageShift)
		if rng.Intn(2) == 0 {
			shift = HugePageShift
		}
		iova := uint64(rng.Int63n(1<<40)) &^ (uint64(1)<<shift - 1)
		conflict := false
		for prev := range mapped {
			if prev>>HugePageShift == iova>>HugePageShift {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		_, hpa, err := nt.MapIOVA(iova, shift)
		if err != nil {
			t.Fatal(err)
		}
		mapped[iova] = m{hpa, shift}
	}
	for iova, want := range mapped {
		off := uint64(rng.Int63n(1 << want.shift))
		res, err := nt.WalkInto(iova|off, nil)
		if err != nil {
			t.Fatalf("walk %#x: %v", iova|off, err)
		}
		if res.HPA != uint64(want.hpa)|off {
			t.Fatalf("walk %#x = %#x, want %#x", iova|off, res.HPA, uint64(want.hpa)|off)
		}
		wantN := 24
		if want.shift == HugePageShift {
			wantN = 18
		}
		if len(res.Accesses) != wantN {
			t.Fatalf("walk %#x: %d accesses, want %d", iova, len(res.Accesses), wantN)
		}
	}
}

// Property (quick): levelShift/index are consistent: reassembling indices
// reproduces the original page-aligned VA.
func TestPropertyIndexDecomposition(t *testing.T) {
	f := func(raw uint64) bool {
		va := raw & (1<<48 - 1) &^ (PageSize - 1)
		var back uint64
		for level := 4; level >= 1; level-- {
			back |= index(va, level) << levelShift(level)
		}
		return back == va
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFiveLevelWalkCounts(t *testing.T) {
	// §II-A: a two-dimensional walk costs 24 memory accesses with
	// 4-level tables and 35 with 5-level ones.
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTableLevels("t5", 0x40000000, host, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nt.MapIOVA(0x34800000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := nt.WalkInto(0x34800040, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accesses) != 35 {
		t.Fatalf("5-level nested 4K walk made %d accesses, want 35", len(res.Accesses))
	}
	// Translation correctness holds at depth 5 too.
	if res.HPA == 0 {
		t.Fatal("zero hPA")
	}
	res2, err := nt.WalkInto(0x34800040, nil)
	if err != nil || res2.HPA != res.HPA {
		t.Fatalf("repeat walk diverged: %v %#x vs %#x", err, res2.HPA, res.HPA)
	}
}

func TestFiveLevelSingleDimension(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, 5)
	if pt.levels != 5 {
		t.Fatalf("Levels = %d", pt.levels)
	}
	// A 5-level table can map VAs beyond the 4-level 48-bit limit.
	va := uint64(1)<<52 | 0x123000
	if err := pt.Map(va, 0xabc000, PageShift); err != nil {
		t.Fatal(err)
	}
	res, err := walk(pt, va|0x42)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0xabc042 {
		t.Fatalf("PA = %#x", res.PA)
	}
	if len(res.Accesses) != 5 {
		t.Fatalf("5-level walk made %d accesses, want 5", len(res.Accesses))
	}
}

func TestBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth 3 did not panic")
		}
	}()
	NewPageTableLevels(NewSpace("t", 0, 0), 3)
}

func TestUnmapRemap(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if err := pt.Map(0x1000, 0x2000, PageShift); err != nil {
		t.Fatal(err)
	}
	ok, err := pt.Unmap(0x1000, PageShift)
	if err != nil || !ok {
		t.Fatalf("Unmap: %v %v", ok, err)
	}
	if _, err := walk(pt, 0x1000); err == nil {
		t.Fatal("walk succeeded after unmap")
	}
	// Unmapping again reports absent.
	ok, err = pt.Unmap(0x1000, PageShift)
	if err != nil || ok {
		t.Fatalf("double Unmap: %v %v", ok, err)
	}
	// Remap reuses the intermediate tables.
	tables := s.TableCount()
	if err := pt.Map(0x1000, 0x3000, PageShift); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != tables {
		t.Fatal("remap allocated new table pages")
	}
	res, err := walk(pt, 0x1000)
	if err != nil || res.PA != 0x3000 {
		t.Fatalf("walk after remap: %v %#x", err, res.PA)
	}
}

func TestUnmapValidation(t *testing.T) {
	s := NewSpace("t", 0, 0)
	pt := NewPageTableLevels(s, Levels)
	if _, err := pt.Unmap(0x1001, PageShift); err == nil {
		t.Fatal("misaligned unmap accepted")
	}
	if _, err := pt.Unmap(0x1000, 13); err == nil {
		t.Fatal("bogus shift accepted")
	}
	// Unmapping 4K inside a huge leaf is an error.
	if err := pt.Map(0x200000, 0x400000, HugePageShift); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x201000, PageShift); err == nil {
		t.Fatal("unmap under huge leaf accepted")
	}
}

func TestNestedUnmapRemap(t *testing.T) {
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTableLevels("t", 0x40000000, host, Levels)
	if err != nil {
		t.Fatal(err)
	}
	gpa, _, err := nt.MapIOVA(0xbbe00000, HugePageShift)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := nt.UnmapIOVA(0xbbe00000, HugePageShift)
	if err != nil || !ok {
		t.Fatalf("UnmapIOVA: %v %v", ok, err)
	}
	if _, err := nt.WalkInto(0xbbe00040, nil); err == nil {
		t.Fatal("nested walk succeeded after unmap")
	}
	// Mapping the gIOVA again installs a fresh guest page in the same
	// guest tables.
	tables := nt.guestSpace.TableCount()
	gpa2, _, err := nt.MapIOVA(0xbbe00000, HugePageShift)
	if err != nil {
		t.Fatal(err)
	}
	if gpa2 == gpa || nt.guestSpace.TableCount() != tables {
		t.Fatalf("remap: gPA %#x -> %#x, guest tables %d -> %d", uint64(gpa), uint64(gpa2), tables, nt.guestSpace.TableCount())
	}
	res, err := nt.WalkInto(0xbbe00040, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPA != uint64(gpa2)+0x40 {
		t.Fatalf("remap GPA %#x", res.GPA)
	}
}

// TestGuestTablesStayReachable pins the property the chipset's page-walk
// caches rely on: once a guest table exists, no nested-table mutation
// detaches it. A huge map over it and a huge unmap of it are
// refused, and the table's host address is unchanged afterwards.
func TestGuestTablesStayReachable(t *testing.T) {
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTableLevels("t", 0x40000000, host, Levels)
	if err != nil {
		t.Fatal(err)
	}
	const base = 0xbbe00000 // 2 MB aligned
	if _, _, err := nt.MapIOVA(base, HugePageShift); err != nil {
		t.Fatal(err)
	}
	// Carve the 2 MB page into 4 KB pages: a guest L1 table takes the
	// leaf's place.
	if _, err := nt.UnmapIOVA(base, HugePageShift); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nt.MapIOVA(base+0x3000, PageShift); err != nil {
		t.Fatal(err)
	}
	tbl1, err := nt.TableHPA(base+0x3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	epoch := nt.Epoch()
	if _, _, err := nt.MapIOVA(base, HugePageShift); err == nil {
		t.Fatal("MapIOVA placed a 2 MB leaf over a guest L1 table")
	}
	if nt.Epoch() != epoch {
		t.Fatalf("refused maps moved the epoch: %d -> %d", epoch, nt.Epoch())
	}
	if _, err := nt.UnmapIOVA(base, HugePageShift); err == nil {
		t.Fatal("a 2 MB unmap dropped a guest L1 table")
	}
	if got, err := nt.TableHPA(base+0x3000, 1); err != nil || got != tbl1 {
		t.Fatalf("guest L1 table moved: %#x -> %#x (%v)", uint64(tbl1), uint64(got), err)
	}
	if _, err := nt.WalkInto(base+0x3040, nil); err != nil {
		t.Fatalf("4 KB page lost after refused mutations: %v", err)
	}
}

// TestMutationEpoch pins the counters the IOMMU's walk-memoization
// layer keys its validity checks on: every mutation path through either
// walk dimension strictly increases Epoch.
func TestMutationEpoch(t *testing.T) {
	host := NewSpace("host", 0x1_0000_0000, 0)
	nt, err := NewNestedTableLevels("t", 0x40000000, host, Levels)
	if err != nil {
		t.Fatal(err)
	}
	e0 := nt.Epoch()
	if _, _, err := nt.MapIOVA(0x1000_0000, PageShift); err != nil {
		t.Fatal(err)
	}
	e1 := nt.Epoch()
	if e1 <= e0 {
		t.Fatalf("MapIOVA did not advance the epoch: %d -> %d", e0, e1)
	}
	if g := nt.guest.mutations; g == 0 {
		t.Fatal("guest table reports zero mutations after MapIOVA")
	}
	if _, err := nt.UnmapIOVA(0x1000_0000, PageShift); err != nil {
		t.Fatal(err)
	}
	e2 := nt.Epoch()
	if e2 <= e1 {
		t.Fatalf("UnmapIOVA did not advance the epoch: %d -> %d", e1, e2)
	}
	if _, _, err := nt.MapIOVA(0x1000_0000, PageShift); err != nil {
		t.Fatal(err)
	}
	if nt.Epoch() <= e2 {
		t.Fatalf("re-mapping did not advance the epoch: %d -> %d", e2, nt.Epoch())
	}
}
