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
	"encoding/binary"
	"fmt"
	"math/bits"

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

// lfuMax is the saturation value of the 4-bit LFU counter; when any
// counter in a row reaches it, all counters in the row are halved
// (the aging scheme the paper adopts from RRIP-style designs).
const lfuMax = 15

// Cache is a single-level translation cache. It is not safe for
// concurrent use; the simulation is single-threaded.
//
// Ways are stored set-major in four columns, way w of set s at index
// s×Ways+w. A way's tag byte is 0 when the way is free and otherwise
// tagOf its key, so find matches eight ways per word and compares full
// keys only where the tag agrees. A free way also has lastUse and freq
// 0, which victim relies on.
type Cache struct {
	cfg     Config
	tags    []byte   // Sets×Ways tags, then 7 zero bytes for find's last word load
	entries []Entry  // valid where the tag is non-zero
	lastUse []uint64 // tick of the last hit, fill or refresh
	freq    []uint8  // LFU 4-bit access counter
	tick    uint64
	future  *Future

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
	n := cfg.Entries()
	return &Cache{
		cfg:     cfg,
		tags:    make([]byte, n+7),
		entries: make([]Entry, n),
		lastUse: make([]uint64, n),
		freq:    make([]uint8, n),
	}
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

// setBase maps a key to the index of its set's first way (the cache's
// partitioning policy).
func (c *Cache) setBase(k Key) int {
	mask := uint64(c.cfg.Sets - 1)
	var set uint64
	switch c.cfg.Index {
	case BySID:
		set = uint64(k.SID) & mask
	case Hashed:
		// Fibonacci-style mix of tag and SID.
		set = (k.Tag ^ uint64(k.SID)*0x9E3779B1) * 0x9E3779B97F4A7C15 >> 33 & mask
	default:
		set = k.Tag & mask
	}
	return int(set) * c.cfg.Ways
}

// tagOf is the tag byte of a filled way holding k: 0x80 | a 7-bit hash
// of the whole key. The hash takes a product's top bits, which every
// bit of k moves, so keys that share a set still spread over 128 tags.
func tagOf(k Key) byte {
	h := k.Tag*0x9E3779B97F4A7C15 ^ uint64(k.SID)*0xC2B2AE3D27D4EB4F
	return byte(h>>57) | 0x80
}

const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// find returns the index of the way of the set at base that holds key,
// whose tag is t, or -1. It loads eight tags per word: x is zero in the
// lanes whose tag equals t, and (x−0x01…)&^x&0x80… marks every zero lane
// (and, rarely, a lane above one, which the key compare rejects). Lanes
// past the set's last way, in the next set or the padding, are masked
// off.
func (c *Cache) find(base int, key Key, t byte) int {
	ways := c.cfg.Ways
	pat := uint64(t) * lanes01
	for w := 0; w < ways; w += 8 {
		x := binary.LittleEndian.Uint64(c.tags[base+w:]) ^ pat
		m := (x - lanes01) &^ x & lanes80
		if n := ways - w; n < 8 {
			m &= 1<<(8*n) - 1
		}
		for ; m != 0; m &= m - 1 {
			if i := base + w + bits.TrailingZeros64(m)>>3; c.entries[i].Key == key {
				return i
			}
		}
	}
	return -1
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
	base := c.setBase(key)
	i := c.find(base, key, tagOf(key))
	if i < 0 {
		return Entry{}, false
	}
	c.stats.Hits++
	c.lastUse[i] = c.tick
	if c.freq[i] < lfuMax {
		c.freq[i]++
	}
	// LFU ages the row in the hit that saturates the counter.
	if c.freq[i] == lfuMax && c.cfg.Policy == LFU {
		row := c.freq[base : base+c.cfg.Ways]
		for j := range row {
			row[j] /= 2
		}
	}
	return c.entries[i], true
}

// Peek searches without touching statistics or replacement state.
func (c *Cache) Peek(key Key) (Entry, bool) {
	if i := c.find(c.setBase(key), key, tagOf(key)); i >= 0 {
		return c.entries[i], true
	}
	return Entry{}, false
}

// Insert places an entry, evicting per policy if the set is full.
// Inserting an already-present key refreshes its value in place.
func (c *Cache) Insert(e Entry) {
	c.tick++
	c.stats.Insertions++
	base, t := c.setBase(e.Key), tagOf(e.Key)
	if i := c.find(base, e.Key, t); i >= 0 {
		c.entries[i] = e
		c.lastUse[i] = c.tick
		return
	}
	i := base + c.victim(base)
	if c.tags[i] != 0 {
		c.stats.Evictions++
	}
	c.tags[i], c.entries[i], c.lastUse[i], c.freq[i] = t, e, c.tick, 1
}

// free marks way i free.
func (c *Cache) free(i int) {
	c.tags[i], c.lastUse[i], c.freq[i] = 0, 0, 0
}

// Invalidate removes the entry for key if present, returning whether it was.
func (c *Cache) Invalidate(key Key) bool {
	i := c.find(c.setBase(key), key, tagOf(key))
	if i < 0 {
		return false
	}
	c.free(i)
	c.stats.Invalidates++
	return true
}

// InvalidateSID removes every entry belonging to sid (device detach /
// domain flush) and returns how many were dropped.
func (c *Cache) InvalidateSID(sid uint32) int {
	n := 0
	for i := range c.entries {
		if c.tags[i] != 0 && c.entries[i].Key.SID == sid {
			c.free(i)
			n++
		}
	}
	c.stats.Invalidates += uint64(n)
	return n
}

// Flush empties the cache (a broadcast invalidation), counting the
// dropped entries as invalidates and returning how many there were.
func (c *Cache) Flush() int {
	n := c.Len()
	clear(c.tags)
	clear(c.lastUse)
	clear(c.freq)
	c.stats.Invalidates += uint64(n)
	return n
}

// Len reports the number of valid entries.
func (c *Cache) Len() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Entries returns all valid entries (unspecified order); for tests.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.Len())
	for i, e := range c.entries {
		if c.tags[i] != 0 {
			out = append(out, e)
		}
	}
	return out
}
