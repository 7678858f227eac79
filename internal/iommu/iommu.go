// Package iommu models the chipset side of the translation path: the
// context cache, an optional chipset IOTLB, the partitionable L2/L3
// page-walk caches, and the two-dimensional page-table walker driven
// against the real page tables in internal/mem.
//
// The package is purely functional with respect to time: Translate
// reports how many physical memory accesses the translation performed
// and which structures hit; the performance model (internal/core)
// converts those counts into latency.
package iommu

import (
	"fmt"

	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/tlb"
)

// Config describes the chipset translation hardware.
type Config struct {
	// ContextCache caches SID -> context entries; a miss costs
	// ContextReadAccesses memory reads.
	ContextCache tlb.Config
	// IOTLB is an optional chipset-resident gIOVA->hPA cache (used by
	// the Fig. 4 motivational study; the Base/HyperTRIO configurations
	// of Table IV rely on the on-device DevTLB instead). Sets == 0
	// disables it.
	IOTLB tlb.Config
	// L2PWC caches partial walks at 2 MB granularity: (SID, iova>>21) ->
	// host address of the guest L1 table. 4 KB mappings only.
	L2PWC tlb.Config
	// L3PWC caches partial walks at 1 GB granularity: (SID, iova>>30) ->
	// host address of the guest L2 table.
	L3PWC tlb.Config
	// MemoEntries sizes the walk-memoization table that short-circuits
	// repeated identical nested walks, keyed by the walked table and the
	// gIOVA page, so tenants sharing a table share its entries (a
	// simulator optimization, not modeled hardware — replays charge
	// exactly the accesses the real walk would have performed, so results
	// are byte-identical either way). 0 selects DefaultMemoEntries;
	// negative disables memoization; other values round up to a power of
	// two.
	MemoEntries int
}

// ContextReadAccesses is the number of physical memory accesses one
// context-table lookup costs on a context-cache miss: one read of the
// root-table entry and one of the context entry.
const ContextReadAccesses = 2

// DefaultContextCache returns the context-cache geometry used by every
// experiment: 64 entries, fully associative, LRU.
func DefaultContextCache() tlb.Config {
	return tlb.Config{Name: "context-cache", Sets: 1, Ways: 64, Policy: tlb.LRU}
}

// IOMMU is the chipset translation agent for one shared device.
type IOMMU struct {
	cfg Config

	tenants *mem.TenantTables

	cc    *tlb.Cache
	iotlb *tlb.Cache // nil when disabled
	l2pwc *tlb.Cache
	l3pwc *tlb.Cache

	history *History

	// memo short-circuits repeated identical nested walks; nil when
	// disabled (Config.MemoEntries < 0). See memo.go.
	memo *walkMemo

	// walkBuf is the reused access scratch for one translation's nested
	// walk: Translate only needs the access count, so the record slice is
	// recycled and a warm translation performs no allocation.
	walkBuf []mem.NestedAccess

	// stats holds the live Translations, Walks and MemAccesses counts;
	// Stats adds each cache's traffic.
	stats Stats
}

// New builds the IOMMU. tenants maps every SID that will translate to
// its nested page tables; a SID it does not hold fails to translate.
func New(cfg Config, tenants *mem.TenantTables) *IOMMU {
	u := &IOMMU{
		cfg:     cfg,
		tenants: tenants,
		cc:      tlb.New(cfg.ContextCache),
		l2pwc:   tlb.New(cfg.L2PWC),
		l3pwc:   tlb.New(cfg.L3PWC),
		history: NewHistory(DefaultHistoryDepth),
		memo:    newWalkMemo(cfg.MemoEntries),
	}
	if cfg.IOTLB.Sets > 0 {
		u.iotlb = tlb.New(cfg.IOTLB)
	}
	return u
}

// Config returns the chipset's configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// Result reports what one translation did.
type Result struct {
	HPA uint64

	CCHit    bool
	IOTLBHit bool
	// PWCLevel records the deepest page-walk-cache hit: 0 none,
	// 2 for the L2 (2 MB granule) cache, 3 for the L3 (1 GB granule).
	PWCLevel int
	// MemAccesses is the number of physical memory reads performed
	// (context table + page-table walk). Zero on an IOTLB hit with a
	// warm context cache.
	MemAccesses int
}

// PageKey builds the cache key for a translation at its mapping's native
// granule. The page-size class is folded into the tag's high bits so 4 KB
// and 2 MB mappings never alias.
func PageKey(sid mem.SID, iova uint64, pageShift uint8) tlb.Key {
	return tlb.Key{SID: uint32(sid), Tag: iova>>pageShift | uint64(pageShift)<<56}
}

func granuleKey(sid mem.SID, iova uint64, shift uint) tlb.Key {
	return tlb.Key{SID: uint32(sid), Tag: iova >> shift}
}

// Translate resolves one gIOVA for sid. pageShift is the native page size
// of the mapping (the device learns it from the descriptor format; the
// model carries it in the trace). recordHistory controls whether the
// access updates the per-DID IOVA history (demand accesses do, prefetch
// reads must not).
func (u *IOMMU) Translate(sid mem.SID, iova uint64, pageShift uint8, recordHistory bool) (Result, error) {
	var res Result
	u.stats.Translations++

	nt := u.tenants.Get(sid)
	if nt == nil {
		return res, fmt.Errorf("iommu: no context entry for SID %d", sid)
	}

	// Context lookup: SID -> page-table roots.
	ccKey := tlb.Key{SID: uint32(sid)}
	if _, ok := u.cc.Lookup(ccKey); ok {
		res.CCHit = true
	} else {
		res.MemAccesses += ContextReadAccesses
		u.cc.Insert(tlb.Entry{Key: ccKey})
	}

	if recordHistory {
		u.history.Record(sid, iova, pageShift)
	}

	// Chipset IOTLB (optional).
	iotlbKey := PageKey(sid, iova, pageShift)
	if u.iotlb != nil {
		if e, ok := u.iotlb.Lookup(iotlbKey); ok {
			res.IOTLBHit = true
			res.HPA = e.Value | iova&(uint64(1)<<pageShift-1)
			u.stats.MemAccesses += uint64(res.MemAccesses)
			return res, nil
		}
	}

	// Page-walk caches: resume the two-dimensional walk as deep as
	// possible, from the guest table address the hit entry holds. The L2
	// granule only caches a resume point for 4 KB mappings (for 2 MB
	// pages the L2-granule object is the final translation itself, which
	// lives in the IOTLB/DevTLB), and the L3 cache is consulted only on
	// an L2 miss. The PWC lookups run before the memoization check
	// because they mutate replacement state — a memoized translation
	// must touch the cache model exactly as the real walk would.
	u.stats.Walks++
	startLevel := 0 // 0 = full walk
	var resume mem.Addr
	if pageShift == mem.PageShift {
		if e, ok := u.l2pwc.Lookup(granuleKey(sid, iova, mem.HugePageShift)); ok {
			res.PWCLevel, startLevel, resume = 2, 1, mem.Addr(e.Value)
		}
	}
	if startLevel == 0 {
		if e, ok := u.l3pwc.Lookup(granuleKey(sid, iova, mem.GiantPageShift)); ok {
			res.PWCLevel, startLevel, resume = 3, 2, mem.Addr(e.Value)
		}
	}

	// Memoized replay: a live entry proves the walked table is unchanged
	// since the walks that filled it, so the outcome — translation,
	// access count for the chosen resume depth, install addresses — is
	// replayed without touching the simulated tables. A real walk
	// memoizes what it learned, read off its own access vector.
	var rp resumePoints
	ent, replay := u.memo.lookup(nt, iova>>mem.PageShift, startLevel)
	if ent != nil {
		res.MemAccesses += replay
		res.HPA = ent.hpa4k | iova&(mem.PageSize-1)
		rp = ent.resumePoints
	} else {
		var walk mem.NestedResult
		var err error
		if startLevel == 0 {
			walk, err = nt.WalkInto(iova, u.walkBuf[:0])
		} else {
			walk, err = nt.WalkFromInto(iova, startLevel, resume, u.walkBuf[:0])
		}
		u.walkBuf = walk.Accesses[:0]
		if err != nil {
			return res, fmt.Errorf("iommu: walking %#x for SID %d: %w", iova, sid, err)
		}
		res.MemAccesses += len(walk.Accesses)
		res.HPA = walk.HPA
		rp = resumePointsOf(iova, walk.Accesses)
		ent = u.memo.fill(nt, iova, startLevel, rp, len(walk.Accesses), walk.HPA)
	}
	u.stats.MemAccesses += uint64(res.MemAccesses)
	if startLevel == 1 {
		u.finishL2Resume(sid, iova, nt, ent, &rp)
	}
	u.install(sid, iova, pageShift, iotlbKey, res.HPA, rp)
	return res, nil
}

// finishL2Resume supplies the guest L2 table address that an L2-resumed
// translation never read, so its install refreshes the L3 PWC entry
// exactly as a full walk would. The address comes from the memo entry
// (nil when memoization is off) if a full or L3-resumed walk stored it,
// else from the L3 PWC's entry for the granule, and only when both lack
// it from a silent walk of the tables.
func (u *IOMMU) finishL2Resume(sid mem.SID, iova uint64, nt *mem.NestedTable, ent *memoEntry, rp *resumePoints) {
	if ent != nil && ent.tbl2OK {
		rp.tbl2, rp.tbl2OK = ent.tbl2, true
	} else if e, ok := u.l3pwc.Peek(granuleKey(sid, iova, mem.GiantPageShift)); ok {
		rp.tbl2, rp.tbl2OK = mem.Addr(e.Value), true
	} else if tbl, err := nt.TableHPA(iova, 2); err == nil {
		rp.tbl2, rp.tbl2OK = tbl, true
	}
}

// install performs the post-walk cache installs: the IOTLB entry, the
// L3 PWC entry when the walk's resume points include the guest L2 table,
// and — for 4 KB mappings — the L2 PWC entry when they include the guest
// L1 table.
func (u *IOMMU) install(sid mem.SID, iova uint64, pageShift uint8, iotlbKey tlb.Key, hpa uint64, rp resumePoints) {
	if u.iotlb != nil {
		pageMask := uint64(1)<<pageShift - 1
		u.iotlb.Insert(tlb.Entry{Key: iotlbKey, Value: hpa &^ pageMask, PageShift: pageShift})
	}
	if rp.tbl2OK {
		u.l3pwc.Insert(tlb.Entry{Key: granuleKey(sid, iova, mem.GiantPageShift), Value: uint64(rp.tbl2)})
	}
	if pageShift == mem.PageShift && rp.tbl1OK {
		u.l2pwc.Insert(tlb.Entry{Key: granuleKey(sid, iova, mem.HugePageShift), Value: uint64(rp.tbl1)})
	}
}

// Invalidate drops cached state for one unmapped page (driver unmap →
// IOTLB invalidation command). For a 4 KB page the L2 page-walk-cache
// entry of its 2 MB granule is dropped too, conservatively; the L3 entry
// of the 1 GB granule stays.
func (u *IOMMU) Invalidate(sid mem.SID, iova uint64, pageShift uint8) {
	if u.iotlb != nil {
		u.iotlb.Invalidate(PageKey(sid, iova, pageShift))
	}
	if pageShift == mem.PageShift {
		u.l2pwc.Invalidate(granuleKey(sid, iova, mem.HugePageShift))
	}
	u.history.Drop(sid, iova, pageShift)
}

// InvalidateSID drops every chipset-cached structure belonging to one
// tenant — the domain-wide invalidation a hypervisor issues at tenant
// teardown (context-cache entry, IOTLB and walk-cache entries, and the
// per-DID IOVA history). It returns how many cache entries were dropped.
func (u *IOMMU) InvalidateSID(sid mem.SID) int {
	n := u.cc.InvalidateSID(uint32(sid))
	if u.iotlb != nil {
		n += u.iotlb.InvalidateSID(uint32(sid))
	}
	n += u.l2pwc.InvalidateSID(uint32(sid))
	n += u.l3pwc.InvalidateSID(uint32(sid))
	u.history.DropSID(sid)
	return n
}

// FlushAll empties every chipset cache (a global invalidation command)
// and returns how many entries were dropped. Histories survive — they
// live in main memory, not in chipset state.
func (u *IOMMU) FlushAll() int {
	n := u.cc.Flush()
	if u.iotlb != nil {
		n += u.iotlb.Flush()
	}
	n += u.l2pwc.Flush()
	n += u.l3pwc.Flush()
	return n
}

// History returns the per-DID IOVA history store.
func (u *IOMMU) History() *History { return u.history }

// Stats bundles the IOMMU counters for reporting.
type Stats struct {
	Translations uint64
	Walks        uint64
	MemAccesses  uint64
	ContextCache tlb.Stats
	IOTLB        tlb.Stats
	L2PWC        tlb.Stats
	L3PWC        tlb.Stats
}

// Stats returns a snapshot of the counters.
func (u *IOMMU) Stats() Stats {
	s := u.stats
	s.ContextCache, s.L2PWC, s.L3PWC = u.cc.Stats(), u.l2pwc.Stats(), u.l3pwc.Stats()
	if u.iotlb != nil {
		s.IOTLB = u.iotlb.Stats()
	}
	return s
}

// Register publishes the chipset's counters and every cache's traffic
// into a metrics registry under prefix.
func (u *IOMMU) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".translations", func() uint64 { return u.stats.Translations })
	r.Counter(prefix+".walks", func() uint64 { return u.stats.Walks })
	r.Counter(prefix+".mem_accesses", func() uint64 { return u.stats.MemAccesses })
	u.cc.Register(r, prefix+".cc")
	if u.iotlb != nil {
		u.iotlb.Register(r, prefix+".iotlb")
	}
	u.l2pwc.Register(r, prefix+".l2pwc")
	u.l3pwc.Register(r, prefix+".l3pwc")
}
