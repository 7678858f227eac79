// Package runner is the sweep-execution layer of the experiment suite:
// a worker pool that fans independent simulation cells out across
// goroutines while keeping results in deterministic submission order,
// and a process-wide memoizing cache that constructs each distinct
// hyper-tenant trace at most once and shares it read-only between
// simulations (the immutability contract documented in internal/trace).
// A cell opens its own source on its worker: sweeps open the cached
// trace (Cache.Open), which pays for itself as soon as two cells share
// a config; a cell whose trace would be too long to hold opens an
// online trace.Stream instead.
package runner

import (
	"sync"

	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// cacheKey identifies a trace by the values that determine its content.
// trace.Config carries its optional profile override as a pointer; the
// key stores the pointed-to Profile by value, so two callers that build
// identical override profiles in different allocations still share one
// cached trace.
type cacheKey struct {
	benchmark  workload.Kind
	tenants    int
	interleave trace.Interleave
	seed       int64
	scale      float64
	rng        workload.RNG
	hasProfile bool
	profile    workload.Profile
}

func keyOf(c trace.Config) cacheKey {
	k := cacheKey{
		benchmark:  c.Benchmark,
		tenants:    c.Tenants,
		interleave: c.Interleave,
		seed:       c.Seed,
		scale:      c.Scale,
		rng:        c.RNG,
	}
	if c.Profile != nil {
		k.hasProfile = true
		k.profile = *c.Profile
	}
	return k
}

// cacheEntry holds one memoized Construct call. The once gives the
// cache singleflight semantics: concurrent Gets for the same key block
// on a single construction instead of duplicating it.
type cacheEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// Cache memoizes trace construction. It is safe for concurrent use; the
// traces it returns are shared, so callers must treat them as read-only
// (trace.Trace documents that contract, and core.System honours it).
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    uint64
	misses  uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// shared is the process-wide cache the experiment suite runs through.
var shared = NewCache()

// Shared returns the process-wide cache: every distinct trace.Config is
// constructed once per process no matter how many experiments sweep it.
func Shared() *Cache { return shared }

// Get returns the trace for cfg, constructing it on first use. Failed
// constructions are memoized too (Construct is deterministic, so
// retrying cannot succeed). The returned trace is shared: read-only.
func (c *Cache) Get(cfg trace.Config) (*trace.Trace, error) {
	key := keyOf(cfg)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tr, e.err = trace.Construct(cfg) })
	return e.tr, e.err
}

// Open returns an opener for runner.Cell: each call gets the cached
// trace for cfg (constructing it on first use) and a fresh TraceSource
// over it, so any number of cells replay one shared trace.
func (c *Cache) Open(cfg trace.Config) func() (trace.Source, error) {
	return func() (trace.Source, error) {
		tr, err := c.Get(cfg)
		if err != nil {
			return nil, err
		}
		return tr.Source(), nil
	}
}

// Reset drops every entry and zeroes the counters (benchmarks use it to
// make iterations pay trace construction again).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = make(map[cacheKey]*cacheEntry)
	c.hits = 0
	c.misses = 0
	c.mu.Unlock()
}

// CacheStats is a snapshot of the cache's accounting.
type CacheStats struct {
	Entries int    // distinct traces held
	Hits    uint64 // Gets served from an existing entry
	Misses  uint64 // Gets that triggered construction
}

// HitRate returns Hits over all Gets, or 0 for an untouched cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses}
}
