package iommu

import "hypertrio/internal/mem"

// DefaultMemoEntries is the walk-memoization capacity used when
// Config.MemoEntries is zero: 16 K direct-mapped 64-byte entries, 1 MiB
// of fixed storage per chipset.
const DefaultMemoEntries = 1 << 14

// resumePoints is what one walk's access vector says about the two
// page-walk-cache resume points: the host addresses of the guest L1 and
// L2 tables (the values the L2 and L3 PWC entries hold) and how many
// accesses a walk resumed at each performs. tbl1OK/tbl2OK hold exactly
// when the walk read an entry of that table, i.e. when
// NestedTable.TableHPA(iova, 1)/(iova, 2) would succeed.
type resumePoints struct {
	tbl1, tbl2     mem.Addr
	suf1, suf2     uint16 // accesses when resuming at guest L1 / guest L2
	tbl1OK, tbl2OK bool
}

// resumePointsOf derives the resume points from a successful walk of
// iova: the GuestEntry read at guest level L happens at (level-L table
// base) + index(iova, L)*8, and a page-walk-cache resume from level L
// replays exactly the vector's suffix from that read — so one walk
// yields both install addresses and both partial-walk counts without
// any extra table traffic. A resumed walk's vector is such a suffix, so
// it yields the points at and below its resume level.
func resumePointsOf(iova uint64, accesses []mem.NestedAccess) resumePoints {
	var rp resumePoints
	for i := range accesses {
		a := &accesses[i]
		if a.Kind != mem.GuestEntry {
			continue
		}
		suf := uint16(len(accesses) - i)
		switch a.GuestLevel {
		case 2:
			idx2 := (iova >> (mem.PageShift + 9)) & (mem.EntriesPerTable - 1)
			rp.tbl2, rp.suf2, rp.tbl2OK = a.HostAddr-mem.Addr(idx2*8), suf, true
		case 1:
			idx1 := (iova >> mem.PageShift) & (mem.EntriesPerTable - 1)
			rp.tbl1, rp.suf1, rp.tbl1OK = a.HostAddr-mem.Addr(idx1*8), suf, true
		}
	}
	return rp
}

// memoEntry is one cached nested-walk outcome for a (walked table, gIOVA
// 4 KB page) pair. The table is named by its host root, the host-physical
// L4 address a context entry points at, so every SID registered on one
// shared template table reads and fills the same entry. The entry
// accumulates what walks of the page learned: the 4 KB-granular host
// translation, the access count of a full walk (total, 0 until a full
// walk is seen) and the resume points (each known when its OK flag is
// set). Validity is the table epoch alone: a walk's outcome is a pure
// function of table contents, and every table mutation advances it.
// Fields are ordered so the entry fills exactly one 64-byte cache line.
type memoEntry struct {
	page       uint64   // gIOVA >> mem.PageShift
	root       mem.Addr // NestedTable.HostRoot of the walked table
	tableEpoch uint64
	hpa4k      uint64 // host translation of the key's 4 KB page (low 12 bits clear)
	resumePoints

	total uint16 // accesses of the full two-dimensional walk; 0 = unknown
	valid bool
}

// walkMemo is the epoch-validated walk-memoization table: direct-mapped
// over a power-of-two entry array, so lookup, fill and eviction are a
// hash, a compare and a struct write — no map, no lists, no allocation
// after construction. Collisions simply overwrite (the displaced walk
// recomputes on its next miss), which keeps behaviour deterministic and
// memory exactly bounded.
//
// Nothing is ever invalidated eagerly. A table mutation advances the
// table's epoch, so its stale entries fail their compare on next touch.
// Invalidation commands drop modelled hardware state (IOTLB, PWCs,
// context cache) but never change a table, so they leave the memo alone.
type walkMemo struct {
	entries []memoEntry
	mask    uint64

	hits, misses, fills uint64
}

// newWalkMemo sizes the table from the config knob: 0 means
// DefaultMemoEntries, negative disables memoization entirely (nil memo),
// anything else rounds up to a power of two.
func newWalkMemo(entries int) *walkMemo {
	if entries < 0 {
		return nil
	}
	if entries == 0 {
		entries = DefaultMemoEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &walkMemo{entries: make([]memoEntry, n), mask: uint64(n - 1)}
}

// memoHash mixes (table host root, page) into a table index (splitmix64
// finalizer).
func memoHash(root mem.Addr, page uint64) uint64 {
	x := page*0x9E3779B97F4A7C15 ^ uint64(root)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// slot returns the entry (nt, page) maps to and whether it holds a live
// outcome for exactly that key at the table's current epoch.
func (m *walkMemo) slot(nt *mem.NestedTable, page uint64) (*memoEntry, bool) {
	root := nt.HostRoot()
	ent := &m.entries[memoHash(root, page)&m.mask]
	return ent, ent.valid && ent.root == root && ent.page == page && ent.tableEpoch == nt.Epoch()
}

// lookup returns the live entry for (nt, page) and the access count of a
// walk starting at startLevel (0 full, 1 at guest L1, 2 at guest L2), or
// nil when the entry is missing, stale, or does not know that count.
func (m *walkMemo) lookup(nt *mem.NestedTable, page uint64, startLevel int) (*memoEntry, int) {
	if m == nil {
		return nil, 0
	}
	if ent, live := m.slot(nt, page); live {
		n, ok := int(ent.total), ent.total != 0
		switch startLevel {
		case 1:
			n, ok = int(ent.suf1), ent.tbl1OK
		case 2:
			n, ok = int(ent.suf2), ent.tbl2OK
		}
		if ok {
			m.hits++
			return ent, n
		}
	}
	m.misses++
	return nil, 0
}

// fill memoizes what one successful walk of iova learned: a walk starting
// at startLevel that performed n accesses, translated to hpa, and read
// the resume points rp off its access vector. It merges into the live
// entry for the key, or replaces whatever the slot held, and returns it.
// A full walk stores total and both resume points, an L3-resumed walk
// both resume points, an L2-resumed walk the guest L1 one.
func (m *walkMemo) fill(nt *mem.NestedTable, iova uint64, startLevel int, rp resumePoints, n int, hpa uint64) *memoEntry {
	if m == nil || n > 0xFFFF {
		return nil
	}
	page := iova >> mem.PageShift
	ent, live := m.slot(nt, page)
	if !live {
		*ent = memoEntry{
			page:       page,
			root:       nt.HostRoot(),
			tableEpoch: nt.Epoch(),
			hpa4k:      hpa &^ (mem.PageSize - 1),
			valid:      true,
		}
	}
	m.fills++
	switch startLevel {
	case 0:
		ent.total, ent.resumePoints = uint16(n), rp
	case 1:
		ent.tbl1, ent.suf1, ent.tbl1OK = rp.tbl1, rp.suf1, rp.tbl1OK
	case 2:
		ent.resumePoints = rp
	}
	return ent
}

// MemoStats reports the walk-memoization counters. They are intentionally
// not part of Stats or the obs registry: memoization is outcome-invisible
// by contract, so its bookkeeping must not alter any reported schema.
type MemoStats struct {
	Enabled bool
	Entries int
	Hits    uint64
	Misses  uint64
	Fills   uint64
}

// MemoStats returns a snapshot of the walk-memoization counters.
func (u *IOMMU) MemoStats() MemoStats {
	if u.memo == nil {
		return MemoStats{}
	}
	return MemoStats{
		Enabled: true,
		Entries: len(u.memo.entries),
		Hits:    u.memo.hits,
		Misses:  u.memo.misses,
		Fills:   u.memo.fills,
	}
}
