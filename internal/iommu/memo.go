package iommu

import (
	"hypertrio/internal/mem"
)

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

// memoEntry is one cached nested-walk outcome for a (SID, gIOVA 4 KB
// page) pair. The entry stores everything a replay needs — the 4 KB-
// granular host translation, the access count of the full walk, and the
// walk's resume points. Validity is epoch-checked, never scanned: a
// stored snapshot of the tenant's table epoch, the per-SID invalidation
// epoch and the global flush epoch must all still match. Fields are
// ordered so the entry fills exactly one 64-byte cache line.
type memoEntry struct {
	page       uint64 // gIOVA >> mem.PageShift
	tableEpoch uint64
	hpa4k      uint64 // host translation of the key's 4 KB page (low 12 bits clear)
	resumePoints

	sid         mem.SID
	sidEpoch    uint32
	globalEpoch uint32

	total uint16 // accesses of the full two-dimensional walk
	valid bool
}

// walkMemo is the epoch-validated walk-memoization table: direct-mapped
// over a power-of-two entry array, so lookup, fill and eviction are a
// hash, a compare and a struct write — no map, no lists, no allocation
// after construction. Collisions simply overwrite (the displaced walk
// recomputes on its next miss), which keeps behaviour deterministic and
// memory exactly bounded.
//
// Invalidation is O(1) regardless of how many entries a command covers:
// page and tenant invalidations bump the tenant's epoch counter, global
// flushes bump the global epoch, and table mutations advance the
// tenant's NestedTable epoch — stale entries then fail their epoch
// compare on next touch instead of being searched for eagerly.
type walkMemo struct {
	entries []memoEntry
	mask    uint64

	sidEp    []uint32 // per-SID invalidation epochs, dense, grown on demand
	globalEp uint32

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

// memoHash mixes (sid, page) into a table index (splitmix64 finalizer).
func memoHash(sid mem.SID, page uint64) uint64 {
	x := page*0x9E3779B97F4A7C15 ^ uint64(sid)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (m *walkMemo) sidEpoch(sid mem.SID) uint32 {
	if int(sid) < len(m.sidEp) {
		return m.sidEp[sid]
	}
	return 0
}

// bumpSID advances one tenant's invalidation epoch, logically dropping
// every memoized walk for that SID in O(1).
func (m *walkMemo) bumpSID(sid mem.SID) {
	if m == nil {
		return
	}
	for int(sid) >= len(m.sidEp) {
		m.sidEp = append(m.sidEp, 0)
	}
	m.sidEp[sid]++
}

// bumpGlobal logically drops every memoized walk (global flush).
func (m *walkMemo) bumpGlobal() {
	if m == nil {
		return
	}
	m.globalEp++
}

// lookup returns the live entry for (sid, page), revalidating its epochs
// against the tenant's current table state, or nil on a miss. A stale
// entry is marked invalid so the slot refills.
func (m *walkMemo) lookup(sid mem.SID, page uint64, nt *mem.NestedTable) *memoEntry {
	if m == nil {
		return nil
	}
	ent := &m.entries[memoHash(sid, page)&m.mask]
	if !ent.valid || ent.sid != sid || ent.page != page {
		m.misses++
		return nil
	}
	if ent.tableEpoch != nt.Epoch() || ent.sidEpoch != m.sidEpoch(sid) || ent.globalEpoch != m.globalEp {
		ent.valid = false
		m.misses++
		return nil
	}
	m.hits++
	return ent
}

// fill memoizes one successful full walk of total accesses, whose
// resume points rp were read off its access vector.
func (m *walkMemo) fill(sid mem.SID, iova uint64, nt *mem.NestedTable, rp resumePoints, total int, hpa uint64) {
	if m == nil || total == 0 || total > 0xFFFF {
		return
	}
	m.fills++
	m.entries[memoHash(sid, iova>>mem.PageShift)&m.mask] = memoEntry{
		page:         iova >> mem.PageShift,
		tableEpoch:   nt.Epoch(),
		hpa4k:        hpa &^ (mem.PageSize - 1),
		resumePoints: rp,
		sid:          sid,
		sidEpoch:     m.sidEpoch(sid),
		globalEpoch:  m.globalEp,
		total:        uint16(total),
		valid:        true,
	}
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
