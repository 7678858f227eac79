package tlb

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func k(sid uint32, tag uint64) Key { return Key{SID: sid, Tag: tag} }

func e(sid uint32, tag, val uint64) Entry {
	return Entry{Key: k(sid, tag), Value: val, PageShift: 12}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "z", Sets: 0, Ways: 1, Policy: LRU},
		{Name: "np2", Sets: 3, Ways: 1, Policy: LRU},
		{Name: "w", Sets: 4, Ways: 0, Policy: LRU},
		{Name: "p", Sets: 4, Ways: 1, Policy: PolicyKind(99)},
		{Name: "past oracle", Sets: 4, Ways: 1, Policy: Oracle + 1},
		{Name: "index", Sets: 4, Ways: 1, Policy: LRU, Index: IndexMode(7)},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	if New(Config{Name: "ok", Sets: 1, Ways: 8, Policy: LFU}).Config().Entries() != 8 {
		t.Fatal("Entries() wrong")
	}
}

// The entry cap is checked before New allocates a slot, and without
// forming Sets × Ways, which could overflow.
func TestConfigValidateEntryCap(t *testing.T) {
	cases := []struct {
		name       string
		sets, ways int
		ok         bool
	}{
		{"at the cap", MaxEntries / 8, 8, true},
		{"fully associative at the cap", 1, MaxEntries, true},
		{"twice the cap", MaxEntries / 4, 8, false},
		{"2^30 sets", 1 << 30, 8, false},
		{"one entry over the cap", 1, MaxEntries + 1, false},
		{"product overflows int", 1 << 62, 1 << 4, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Config{Name: "devtlb", Sets: c.sets, Ways: c.ways, Policy: LRU}.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "devtlb") {
				t.Errorf("error %q does not name the cache", err)
			}
		})
	}
}

// New allocates the ways as columns: at most 56 bytes per way in five
// allocations, whatever the geometry — one set of 64 ways, the DevTLB's
// 8×8, the L3 page-walk cache's 64×16, or a million one-way sets. The
// collector is off while New runs, so its own allocations stay out of
// the count.
func TestNewAllocatesColumns(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, g := range []struct{ sets, ways int }{{1, 64}, {8, 8}, {64, 16}, {MaxEntries, 1}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := New(Config{Name: "t", Sets: g.sets, Ways: g.ways, Policy: LFU})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		ways := uint64(g.sets * g.ways)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 56*ways {
			t.Errorf("%d×%d: New allocated %d bytes, %.1f per way; want at most 56", g.sets, g.ways, bytes, float64(bytes)/float64(ways))
		}
		if n := after.Mallocs - before.Mallocs; n > 5 {
			t.Errorf("%d×%d: New made %d allocations, want at most 5", g.sets, g.ways, n)
		}
	}
}

func TestLookupInsertHit(t *testing.T) {
	c := New(Config{Name: "t", Sets: 8, Ways: 2, Policy: LRU})
	if _, ok := c.Lookup(k(1, 100)); ok {
		t.Fatal("empty cache hit")
	}
	c.Insert(e(1, 100, 0xabc))
	got, ok := c.Lookup(k(1, 100))
	if !ok || got.Value != 0xabc {
		t.Fatalf("lookup after insert: ok=%v v=%#x", ok, got.Value)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Insertions != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSIDDistinguishesTenants(t *testing.T) {
	// Two tenants using the same gIOVA page (the paper's multi-tenant
	// observation) must not alias to the same entry.
	c := New(Config{Name: "t", Sets: 8, Ways: 4, Policy: LRU})
	c.Insert(e(1, 0xbbe00, 0x111))
	c.Insert(e(2, 0xbbe00, 0x222))
	a, ok1 := c.Lookup(k(1, 0xbbe00))
	b, ok2 := c.Lookup(k(2, 0xbbe00))
	if !ok1 || !ok2 || a.Value != 0x111 || b.Value != 0x222 {
		t.Fatalf("tenant aliasing: %v %v %#x %#x", ok1, ok2, a.Value, b.Value)
	}
}

func TestInsertRefreshesInPlace(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2, Policy: LRU})
	c.Insert(e(1, 10, 1))
	c.Insert(e(1, 10, 2))
	if c.Len() != 1 {
		t.Fatalf("duplicate insert grew cache: len=%d", c.Len())
	}
	got, _ := c.Lookup(k(1, 10))
	if got.Value != 2 {
		t.Fatalf("refresh did not update value: %#x", got.Value)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2, Policy: LRU})
	c.Insert(e(1, 1, 0))
	c.Insert(e(1, 2, 0))
	c.Lookup(k(1, 1)) // 1 is now MRU
	c.Insert(e(1, 3, 0))
	if _, ok := c.Peek(k(1, 2)); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.Peek(k(1, 1)); !ok {
		t.Fatal("LRU evicted the most recently used entry")
	}
}

func TestLFUKeepsHotEntry(t *testing.T) {
	// The ring-buffer page is accessed ~30x more often than data pages
	// (§IV-D); LFU must keep it while LRU may not.
	c := New(Config{Name: "t", Sets: 1, Ways: 2, Policy: LFU})
	c.Insert(e(1, 0x34800, 0)) // hot page
	for i := 0; i < 10; i++ {
		c.Lookup(k(1, 0x34800))
	}
	c.Insert(e(1, 0xbbe00, 0)) // cold data page
	c.Insert(e(1, 0xbfe00, 0)) // evicts: must pick the cold one
	if _, ok := c.Peek(k(1, 0x34800)); !ok {
		t.Fatal("LFU evicted the hot entry")
	}
	if _, ok := c.Peek(k(1, 0xbbe00)); ok {
		t.Fatal("LFU kept the cold entry over the hot one")
	}
}

// The hit that saturates a counter halves the whole row, which shows in
// the next eviction: B (3 accesses) and C (2) both halve to 1, so the
// tie goes to B, the less recently used. One hit short of saturation
// the row keeps its counts and C, the less frequently used, goes.
func TestLFUSaturationHalvesRow(t *testing.T) {
	for _, tc := range []struct {
		hotHits int
		evicted uint64
	}{{13, 3}, {14, 2}} {
		c := New(Config{Name: "t", Sets: 1, Ways: 3, Policy: LFU})
		c.Insert(e(1, 1, 0)) // A: freq 1
		c.Insert(e(1, 2, 0)) // B
		c.Lookup(k(1, 2))
		c.Lookup(k(1, 2))    // B: freq 3
		c.Insert(e(1, 3, 0)) // C
		c.Lookup(k(1, 3))    // C: freq 2, used after B
		for i := 0; i < tc.hotHits; i++ {
			c.Lookup(k(1, 1)) // 14 hits take A from 1 to 15
		}
		c.Insert(e(1, 4, 0))
		for tag := uint64(1); tag <= 4; tag++ {
			if _, ok := c.Peek(k(1, tag)); ok == (tag == tc.evicted) {
				t.Errorf("%d hits on A: tag %d present=%v, want tag %d evicted", tc.hotHits, tag, ok, tc.evicted)
			}
		}
	}
}

func TestOracleBeatsLRUOnScan(t *testing.T) {
	// Cyclic scan over ways+1 keys: LRU gets zero hits, oracle hits.
	const ways, keys, rounds = 4, 5, 40
	var seq []Key
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			seq = append(seq, k(1, uint64(i)))
		}
	}
	run := func(p PolicyKind) Stats {
		c := New(Config{Name: "t", Sets: 1, Ways: ways, Policy: p})
		if p == Oracle {
			c.SetFuture(NewFuture(seq))
		}
		for _, key := range seq {
			if _, ok := c.Lookup(key); !ok {
				c.Insert(Entry{Key: key})
			}
		}
		return c.Stats()
	}
	lru := run(LRU)
	oracle := run(Oracle)
	if lru.Hits != 0 {
		t.Fatalf("LRU on cyclic scan got %d hits, want 0", lru.Hits)
	}
	if oracle.Hits == 0 {
		t.Fatal("oracle got no hits on cyclic scan")
	}
	if oracle.Hits <= lru.Hits {
		t.Fatalf("oracle (%d hits) not better than LRU (%d)", oracle.Hits, lru.Hits)
	}
}

// Property: oracle never has more misses than LRU or LFU on any random
// stream (Belady optimality, per-set).
func TestPropertyOracleOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 500
		seq := make([]Key, n)
		for i := range seq {
			seq[i] = k(uint32(rng.Intn(3)), uint64(rng.Intn(20)))
		}
		run := func(p PolicyKind) uint64 {
			c := New(Config{Name: "t", Sets: 2, Ways: 3, Policy: p})
			if p == Oracle {
				c.SetFuture(NewFuture(seq))
			}
			for _, key := range seq {
				if _, ok := c.Lookup(key); !ok {
					c.Insert(Entry{Key: key})
				}
			}
			return c.Stats().Misses
		}
		om := run(Oracle)
		for _, p := range []PolicyKind{LRU, LFU} {
			if m := run(p); om > m {
				t.Fatalf("trial %d: oracle misses %d > %s misses %d", trial, om, p, m)
			}
		}
	}
}

func TestBySIDIndexIsolation(t *testing.T) {
	// Partitioned cache: different SIDs land in different rows, so a
	// noisy tenant cannot evict another tenant's entries.
	c := New(Config{Name: "p", Sets: 8, Ways: 2, Policy: LRU, Index: BySID})
	c.Insert(e(1, 0xbbe00, 0x111))
	// SID 2 floods with many distinct tags.
	for i := 0; i < 100; i++ {
		c.Insert(e(2, uint64(i), 0))
	}
	if _, ok := c.Peek(k(1, 0xbbe00)); !ok {
		t.Fatal("partitioning failed: tenant 2 evicted tenant 1's entry")
	}
}

func TestBySIDGroupsShareRow(t *testing.T) {
	// SIDs congruent mod Sets share a partition (PTag matches low bits).
	c := New(Config{Name: "p", Sets: 8, Ways: 1, Policy: LRU, Index: BySID})
	c.Insert(e(1, 10, 0xa))
	c.Insert(e(9, 20, 0xb)) // 9 mod 8 == 1: same row, evicts
	if _, ok := c.Peek(k(1, 10)); ok {
		t.Fatal("SIDs 1 and 9 should share a row in an 8-set BySID cache")
	}
}

func TestByAddressConflict(t *testing.T) {
	// Conventional indexing: same tag, different tenants -> same set.
	c := New(Config{Name: "a", Sets: 8, Ways: 1, Policy: LRU, Index: ByAddress})
	c.Insert(e(1, 0xbbe00, 1))
	c.Insert(e(2, 0xbbe00, 2)) // same tag, same set, evicts tenant 1
	if _, ok := c.Peek(k(1, 0xbbe00)); ok {
		t.Fatal("expected conflict eviction with ByAddress indexing")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Name: "t", Sets: 4, Ways: 2, Policy: LRU})
	c.Insert(e(1, 5, 0))
	if !c.Invalidate(k(1, 5)) {
		t.Fatal("Invalidate missed a present key")
	}
	if c.Invalidate(k(1, 5)) {
		t.Fatal("Invalidate hit an absent key")
	}
	if _, ok := c.Peek(k(1, 5)); ok {
		t.Fatal("entry survived invalidation")
	}
}

func TestInvalidateSID(t *testing.T) {
	c := New(Config{Name: "t", Sets: 4, Ways: 4, Policy: LRU})
	for i := 0; i < 8; i++ {
		c.Insert(e(1, uint64(i), 0))
		c.Insert(e(2, uint64(i), 0))
	}
	n := c.InvalidateSID(1)
	if n != 8 {
		t.Fatalf("InvalidateSID removed %d, want 8", n)
	}
	for _, en := range c.Entries() {
		if en.Key.SID == 1 {
			t.Fatal("SID 1 entry survived InvalidateSID")
		}
	}
}

func TestFlushAndLen(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 2, Policy: LRU})
	c.Insert(e(1, 0, 0))
	c.Insert(e(1, 1, 0))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if n := c.Flush(); n != 2 {
		t.Fatalf("Flush dropped %d entries, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d", c.Len())
	}
	if got := c.Stats().Invalidates; got != 2 {
		t.Fatalf("invalidates stat = %d, want 2 (flush counts its drops)", got)
	}
	if n := c.Flush(); n != 0 {
		t.Fatalf("Flush of an empty cache dropped %d entries", n)
	}
}

// Property: the cache never exceeds capacity and a just-inserted key is
// always immediately findable.
func TestPropertyCapacityAndInclusion(t *testing.T) {
	f := func(ops []uint32, policyRaw uint8) bool {
		policy := PolicyKind(policyRaw % 2) // skip oracle (needs future)
		c := New(Config{Name: "q", Sets: 4, Ways: 2, Policy: policy})
		for _, op := range ops {
			key := k(uint32(op%5), uint64(op>>3)%32)
			if _, ok := c.Lookup(key); !ok {
				c.Insert(Entry{Key: key, Value: uint64(op)})
				if _, ok := c.Peek(key); !ok {
					return false
				}
			}
			if c.Len() > c.Config().Entries() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats are consistent: lookups = hits + misses, and evictions
// never exceed insertions.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "q", Sets: 2, Ways: 2, Policy: LFU})
		for _, op := range ops {
			key := k(uint32(op%3), uint64(op%17))
			if _, ok := c.Lookup(key); !ok {
				c.Insert(Entry{Key: key})
			}
		}
		s := c.Stats()
		return s.Lookups == s.Hits+s.Misses && s.Evictions <= s.Insertions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFutureCursor(t *testing.T) {
	seq := []Key{k(1, 1), k(1, 2), k(1, 1), k(1, 3)}
	f := NewFuture(seq)
	if f.Next(k(1, 1)) != 0 {
		t.Fatalf("Next before observe = %d, want 0", f.Next(k(1, 1)))
	}
	f.Observe(k(1, 1))
	if f.Next(k(1, 1)) != 2 {
		t.Fatalf("Next after observe = %d, want 2", f.Next(k(1, 1)))
	}
	f.Observe(k(1, 1))
	if f.Next(k(1, 1)) != InfiniteReuse {
		t.Fatal("exhausted key should report InfiniteReuse")
	}
	if f.Next(k(9, 9)) != InfiniteReuse {
		t.Fatal("unknown key should report InfiniteReuse")
	}
	if f.Remaining(k(1, 3)) != 1 {
		t.Fatalf("Remaining = %d, want 1", f.Remaining(k(1, 3)))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want PolicyKind
	}{{"lru", LRU}, {"LFU", LFU}, {"oracle", Oracle}, {"belady", Oracle}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, in := range []string{"bogus", "fifo", "plru", "random"} {
		_, err := ParsePolicy(in)
		if err == nil || !strings.Contains(err.Error(), "want lru, lfu or oracle") {
			t.Errorf("ParsePolicy(%q) error = %v, want one listing the policies", in, err)
		}
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Lookups: 10, Hits: 7, Misses: 3}
	if s.HitRate() != 0.7 || s.MissRate() != 0.3 {
		t.Fatalf("rates: %v %v", s.HitRate(), s.MissRate())
	}
	var z Stats
	if z.HitRate() != 0 || z.MissRate() != 0 {
		t.Fatal("zero-lookup rates should be 0")
	}
}

func TestHashedIndexSpreadsTenants(t *testing.T) {
	// With hashed indexing, the same tag from many tenants spreads over
	// sets instead of piling into one row.
	c := New(Config{Name: "h", Sets: 16, Ways: 1, Policy: LRU, Index: Hashed})
	for sid := uint32(0); sid < 16; sid++ {
		c.Insert(Entry{Key: Key{SID: sid, Tag: 0x34800}})
	}
	// A by-address cache would hold exactly 1 of these (all in one set);
	// hashing must retain several.
	if c.Len() < 8 {
		t.Fatalf("hashed index kept only %d of 16 same-tag entries", c.Len())
	}
	byAddr := New(Config{Name: "a", Sets: 16, Ways: 1, Policy: LRU, Index: ByAddress})
	for sid := uint32(0); sid < 16; sid++ {
		byAddr.Insert(Entry{Key: Key{SID: sid, Tag: 0x34800}})
	}
	if byAddr.Len() != 1 {
		t.Fatalf("by-address kept %d same-tag entries, want 1", byAddr.Len())
	}
}

func TestIndexModeStrings(t *testing.T) {
	if ByAddress.String() != "by-address" || BySID.String() != "by-sid" || Hashed.String() != "hashed" {
		t.Fatal("index mode strings wrong")
	}
	if IndexMode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
	if LRU.String() != "LRU" || Oracle.String() != "oracle" || PolicyKind(42).String() == "" {
		t.Fatal("policy strings wrong")
	}
}
