// Package tlb implements the translation caching structures of the
// HyperTRIO design space: set-associative and fully-associative caches
// with LRU, LFU and Belady-oracle replacement (the three policies of the
// paper's Fig. 11b), optional SID-based partitioning (the paper's
// PTag-per-row scheme), and per-structure statistics.
//
// The same Cache type backs every caching structure in the model — the
// on-device DevTLB and Prefetch Buffer, and the chipset's IOTLB and
// L2/L3 page-walk caches — they differ only in configuration and in what
// their values mean.
package tlb

import (
	"fmt"

	"hypertrio/internal/obs"
)

// Key identifies a cached translation: the requesting tenant's Source ID
// and a tag (typically a virtual page number at the structure's granule).
type Key struct {
	SID uint32
	Tag uint64
}

// Entry is a cached translation as stored and returned by the cache.
type Entry struct {
	Key       Key
	Value     uint64 // meaning depends on the structure (hPA base, table hPA, ...)
	PageShift uint8  // page-size class of the mapping, informational
}

// IndexMode selects how a key chooses its set.
type IndexMode uint8

const (
	// ByAddress indexes with the low bits of the tag — the conventional
	// design, where independent tenants using identical gIOVAs collide.
	ByAddress IndexMode = iota
	// BySID indexes with the low bits of the Source ID — the paper's
	// partitioned design (PTag per row): each row belongs to one tenant
	// or to the group of tenants sharing the SID's low bits.
	BySID
	// Hashed mixes the Source ID into the set index, spreading identical
	// gIOVAs from different tenants across sets. Used to model TLBs that
	// hash the domain identifier (e.g. the AMD IOMMU TLB in the paper's
	// Fig. 4 case study) rather than partitioning or plain indexing.
	Hashed
)

func (m IndexMode) String() string {
	switch m {
	case ByAddress:
		return "by-address"
	case BySID:
		return "by-sid"
	case Hashed:
		return "hashed"
	}
	return fmt.Sprintf("IndexMode(%d)", uint8(m))
}

// Config describes one caching structure.
type Config struct {
	Name   string
	Sets   int // power of two; 1 = fully associative
	Ways   int
	Policy PolicyKind
	Index  IndexMode
}

// Entries returns the total capacity.
func (c Config) Entries() int { return c.Sets * c.Ways }

// MaxEntries caps one cache's capacity, Sets × Ways: 1,000× Fig. 9's
// largest DevTLB, and a bound on the slots New allocates up front.
const MaxEntries = 1 << 20

// Validate reports a geometry or policy the cache cannot be built with.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("tlb: %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("tlb: %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	if c.Sets > MaxEntries/c.Ways {
		return fmt.Errorf("tlb: %s: %d sets × %d ways exceeds the %d-entry cap", c.Name, c.Sets, c.Ways, MaxEntries)
	}
	if c.Policy > Oracle {
		return fmt.Errorf("tlb: %s: unknown policy %d", c.Name, c.Policy)
	}
	if c.Index > Hashed {
		return fmt.Errorf("tlb: %s: unknown index mode %d", c.Name, c.Index)
	}
	return nil
}

// Stats counts cache traffic. The cache counts into its own Stats;
// Misses is derived (Lookups − Hits) when Stats() takes the copy.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Insertions  uint64
	Evictions   uint64
	Invalidates uint64
}

// HitRate returns Hits/Lookups, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// MissRate returns Misses/Lookups, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// slot is one way of one set.
type slot struct {
	valid   bool
	entry   Entry
	lastUse uint64 // tick of last hit or insertion
	freq    uint8  // LFU 4-bit access counter
}

// lfuMax is the saturation value of the 4-bit LFU counter; when any
// counter in a row reaches it, all counters in the row are halved
// (the aging scheme the paper adopts from RRIP-style designs).
const lfuMax = 15

// Cache is a single-level translation cache. It is not safe for
// concurrent use; the simulation is single-threaded.
type Cache struct {
	cfg    Config
	sets   [][]slot
	tick   uint64
	future *Future

	// Traffic counts (Misses stays zero here; see Stats / Register).
	stats Stats
}

// New builds a cache from cfg. It panics on invalid configuration, which
// is always a programming error in this codebase (configurations are
// constructed from validated public API types).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, sets: make([][]slot, cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]slot, cfg.Ways)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Misses = s.Lookups - s.Hits
	return s
}

// Register publishes the cache's counters and occupancy into a metrics
// registry under prefix (e.g. "devtlb.hits"). Nil-safe on r.
func (c *Cache) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".lookups", func() uint64 { return c.stats.Lookups })
	r.Counter(prefix+".hits", func() uint64 { return c.stats.Hits })
	r.Counter(prefix+".misses", func() uint64 { return c.Stats().Misses })
	r.Counter(prefix+".insertions", func() uint64 { return c.stats.Insertions })
	r.Counter(prefix+".evictions", func() uint64 { return c.stats.Evictions })
	r.Counter(prefix+".invalidates", func() uint64 { return c.stats.Invalidates })
	r.Gauge(prefix+".entries", func() float64 { return float64(c.Len()) })
}

// SetFuture attaches the oracle's future knowledge; required before any
// access when Policy == Oracle.
func (c *Cache) SetFuture(f *Future) { c.future = f }

// setIndex maps a key to its set (the cache's partitioning policy).
func (c *Cache) setIndex(k Key) int {
	mask := uint64(c.cfg.Sets - 1)
	switch c.cfg.Index {
	case BySID:
		return int(uint64(k.SID) & mask)
	case Hashed:
		// Fibonacci-style mix of tag and SID.
		h := (k.Tag ^ uint64(k.SID)*0x9E3779B1) * 0x9E3779B97F4A7C15 >> 33
		return int(h & mask)
	}
	return int(k.Tag & mask)
}

// Lookup searches for key. On a hit it updates replacement metadata and
// returns the entry. Every access that the oracle should know about must
// go through Lookup.
func (c *Cache) Lookup(key Key) (Entry, bool) {
	c.tick++
	c.stats.Lookups++
	if c.cfg.Policy == Oracle && c.future != nil {
		c.future.Observe(key)
	}
	set := c.sets[c.setIndex(key)]
	for i := range set {
		s := &set[i]
		if s.valid && s.entry.Key == key {
			c.stats.Hits++
			s.lastUse = c.tick
			if s.freq < lfuMax {
				s.freq++
			}
			// LFU ages the row in the hit that saturates the counter.
			if s.freq == lfuMax && c.cfg.Policy == LFU {
				for j := range set {
					set[j].freq /= 2
				}
			}
			return s.entry, true
		}
	}
	return Entry{}, false
}

// Peek searches without touching statistics or replacement state.
func (c *Cache) Peek(key Key) (Entry, bool) {
	set := c.sets[c.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].entry.Key == key {
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

// Insert places an entry, evicting per policy if the set is full.
// Inserting an already-present key refreshes its value in place.
func (c *Cache) Insert(e Entry) {
	c.tick++
	c.stats.Insertions++
	set := c.sets[c.setIndex(e.Key)]
	// Refresh in place if present.
	for i := range set {
		if set[i].valid && set[i].entry.Key == e.Key {
			set[i].entry = e
			set[i].lastUse = c.tick
			return
		}
	}
	fill := slot{valid: true, entry: e, lastUse: c.tick, freq: 1}
	// Free slot?
	for i := range set {
		if !set[i].valid {
			set[i] = fill
			return
		}
	}
	victim := c.victim(set)
	c.stats.Evictions++
	set[victim] = fill
}

// Invalidate removes the entry for key if present, returning whether it was.
func (c *Cache) Invalidate(key Key) bool {
	set := c.sets[c.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].entry.Key == key {
			set[i] = slot{}
			c.stats.Invalidates++
			return true
		}
	}
	return false
}

// InvalidateSID removes every entry belonging to sid (device detach /
// domain flush) and returns how many were dropped.
func (c *Cache) InvalidateSID(sid uint32) int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			s := &c.sets[si][wi]
			if s.valid && s.entry.Key.SID == sid {
				*s = slot{}
				n++
			}
		}
	}
	c.stats.Invalidates += uint64(n)
	return n
}

// Flush empties the cache (a broadcast invalidation), counting the
// dropped entries as invalidates and returning how many there were.
func (c *Cache) Flush() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
			c.sets[si][wi] = slot{}
		}
	}
	c.stats.Invalidates += uint64(n)
	return n
}

// Len reports the number of valid entries.
func (c *Cache) Len() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
		}
	}
	return n
}

// Entries returns all valid entries (unspecified order); for tests.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.Len())
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				out = append(out, c.sets[si][wi].entry)
			}
		}
	}
	return out
}
