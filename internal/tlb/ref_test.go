package tlb

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"
)

// refCache is a linear-scan reference model of Cache, written for
// FuzzCacheMatchesRef as the plainest code that states each policy:
// per-set slices of ways, LRU by last-use timestamps, a 4-bit LFU
// counter that halves the whole row when a hit saturates it, and
// Belady's oracle answering "next use" by scanning the precomputed
// lookup stream. A fill takes the lowest free way and every victim scan
// keeps the lowest way on a tie, so the two models must agree on
// replacement order exactly, oracle ties included.
type refCache struct {
	policy PolicyKind
	index  IndexMode
	rows   [][]refWay
	now    uint64 // timestamp of the latest access

	future []Key // every key Lookup will see, in order (oracle only)
	seen   int   // lookups made so far: the oracle's position in future

	stats Stats
}

type refWay struct {
	valid bool
	e     Entry
	used  uint64 // timestamp of the last hit, fill or refresh
	count uint8  // LFU access counter
}

// refLFUMax is the 4-bit counter's saturation value.
const refLFUMax = 15

func newRefCache(cfg Config, future []Key) *refCache {
	r := &refCache{policy: cfg.Policy, index: cfg.Index, future: future}
	r.rows = make([][]refWay, cfg.Sets)
	for i := range r.rows {
		r.rows[i] = make([]refWay, cfg.Ways)
	}
	return r
}

func (r *refCache) row(k Key) []refWay {
	var h uint64
	switch r.index {
	case ByAddress:
		h = k.Tag
	case BySID:
		h = uint64(k.SID)
	case Hashed:
		h = (k.Tag ^ uint64(k.SID)*0x9E3779B1) * 0x9E3779B97F4A7C15 >> 33
	}
	return r.rows[h%uint64(len(r.rows))]
}

// nextUse is the position in the lookup stream of key's next lookup.
func (r *refCache) nextUse(key Key) uint64 {
	for i := r.seen; i < len(r.future); i++ {
		if r.future[i] == key {
			return uint64(i)
		}
	}
	return math.MaxUint64
}

func (r *refCache) lookup(key Key) (Entry, bool) {
	r.now++
	r.seen++
	r.stats.Lookups++
	row := r.row(key)
	for i := range row {
		w := &row[i]
		if !w.valid || w.e.Key != key {
			continue
		}
		r.stats.Hits++
		w.used = r.now
		if w.count < refLFUMax {
			w.count++
		}
		if r.policy == LFU && w.count == refLFUMax {
			for j := range row {
				row[j].count /= 2
			}
		}
		return w.e, true
	}
	r.stats.Misses++
	return Entry{}, false
}

// evictsBefore reports whether a is a better victim than b.
func (r *refCache) evictsBefore(a, b refWay) bool {
	switch r.policy {
	case LFU:
		return a.count < b.count || a.count == b.count && a.used < b.used
	case Oracle:
		return r.nextUse(a.e.Key) > r.nextUse(b.e.Key)
	}
	return a.used < b.used
}

func (r *refCache) insert(e Entry) {
	r.now++
	r.stats.Insertions++
	row := r.row(e.Key)
	for i := range row {
		if row[i].valid && row[i].e.Key == e.Key {
			row[i].e, row[i].used = e, r.now
			return
		}
	}
	fill := refWay{valid: true, e: e, used: r.now, count: 1}
	for i := range row {
		if !row[i].valid {
			row[i] = fill
			return
		}
	}
	victim := 0
	for i := 1; i < len(row); i++ {
		if r.evictsBefore(row[i], row[victim]) {
			victim = i
		}
	}
	r.stats.Evictions++
	row[victim] = fill
}

// drop clears every valid way that match selects and counts it.
func (r *refCache) drop(match func(Key) bool) int {
	n := 0
	for _, row := range r.rows {
		for i := range row {
			if row[i].valid && match(row[i].e.Key) {
				row[i] = refWay{}
				n++
			}
		}
	}
	r.stats.Invalidates += uint64(n)
	return n
}

func (r *refCache) entries() []Entry {
	var out []Entry
	for _, row := range r.rows {
		for _, w := range row {
			if w.valid {
				out = append(out, w.e)
			}
		}
	}
	return out
}

// sortedEntries orders entries by key so two caches' contents compare
// as sets.
func sortedEntries(es []Entry) []Entry {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Key.SID != es[j].Key.SID {
			return es[i].Key.SID < es[j].Key.SID
		}
		return es[i].Key.Tag < es[j].Key.Tag
	})
	return es
}

// FuzzCacheMatchesRef drives Cache and refCache through the same
// byte-decoded operation stream and requires the same hit or miss, the
// same returned entry, the same invalidation counts, the same Stats and
// the same entries after every operation.
//
// Input: byte 0 picks the geometry (1, 2 or 4 sets; 1 to 4 ways), byte 1
// the policy (LRU, LFU or oracle) and the index mode. Then each op is a
// pair (op, arg); arg names the key SID (arg>>3)&3, tag arg&7.
//
//	op%8 0-3: access (Lookup, then Insert on a miss)
//	op%8 4:   Lookup
//	op%8 5:   Insert (a refresh when the key is present)
//	op%8 6:   Invalidate
//	op%8 7:   Flush if arg >= 224, else InvalidateSID
//
// The oracle's future is the stream of every key the ops look up.
func FuzzCacheMatchesRef(f *testing.F) {
	access := func(args ...byte) []byte {
		var ops []byte
		for _, a := range args {
			ops = append(ops, 0, a)
		}
		return ops
	}
	// LFU, one 2-way set: saturate A's counter (the row halves to A=7,
	// B=0), give B nine hits, then fill C: A is the victim.
	lfu := append([]byte{3, 1}, access(0, 1)...)
	lfu = append(lfu, access(bytes.Repeat([]byte{0}, 14)...)...)
	lfu = append(lfu, access(bytes.Repeat([]byte{1}, 9)...)...)
	lfu = append(lfu, access(2, 0, 1)...)
	f.Add(lfu)
	// Oracle, one 2-way set: blind fills of keys never looked up tie at
	// infinite reuse, and the lowest way goes.
	f.Add([]byte{3, 2, 5, 2, 5, 3, 5, 5, 0, 1, 0, 4, 0, 1})
	// LRU, hashed, 4 sets × 1 way: one tag from four tenants.
	f.Add(append([]byte{2, 6}, access(0, 8, 16, 24, 0, 8, 16, 24)...))
	// LFU by SID, 2 sets × 2 ways: churn, then a tenant flush and a
	// broadcast flush.
	f.Add([]byte{4, 4, 0, 1, 0, 9, 0, 17, 0, 1, 4, 9, 6, 17, 0, 25, 7, 8, 0, 2, 7, 255, 0, 2})

	policies := []PolicyKind{LRU, LFU, Oracle}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Name:   "fuzz",
			Sets:   1 << (data[0] % 3),
			Ways:   1 + int(data[0]/3%4),
			Policy: policies[data[1]%3],
			Index:  IndexMode(data[1] / 3 % 3),
		}
		ops := data[2:]
		keyOf := func(arg byte) Key { return Key{SID: uint32(arg>>3) & 3, Tag: uint64(arg & 7)} }
		var future []Key
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i]%8 <= 4 {
				future = append(future, keyOf(ops[i+1]))
			}
		}
		c := New(cfg)
		ref := newRefCache(cfg, future)
		if cfg.Policy == Oracle {
			c.SetFuture(NewFuture(future))
		}

		lookup := func(step int, key Key) bool {
			got, hit := c.Lookup(key)
			want, wantHit := ref.lookup(key)
			if hit != wantHit || got != want {
				t.Fatalf("op %d: Lookup(%v) = %+v, %v; reference %+v, %v", step, key, got, hit, want, wantHit)
			}
			return hit
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg, step := ops[i]%8, ops[i+1], i/2
			key := keyOf(arg)
			fill := Entry{Key: key, Value: uint64(step), PageShift: 12}
			switch {
			case op <= 3:
				if !lookup(step, key) {
					c.Insert(fill)
					ref.insert(fill)
				}
			case op == 4:
				lookup(step, key)
			case op == 5:
				c.Insert(fill)
				ref.insert(fill)
			case op == 6:
				got := c.Invalidate(key)
				if want := ref.drop(func(k Key) bool { return k == key }) == 1; got != want {
					t.Fatalf("op %d: Invalidate(%v) = %v, reference %v", step, key, got, want)
				}
			case arg >= 224:
				if got, want := c.Flush(), ref.drop(func(Key) bool { return true }); got != want {
					t.Fatalf("op %d: Flush() = %d, reference %d", step, got, want)
				}
			default:
				got := c.InvalidateSID(key.SID)
				if want := ref.drop(func(k Key) bool { return k.SID == key.SID }); got != want {
					t.Fatalf("op %d: InvalidateSID(%d) = %d, reference %d", step, key.SID, got, want)
				}
			}
			if got := c.Stats(); got != ref.stats {
				t.Fatalf("op %d: Stats() = %+v, reference %+v", step, got, ref.stats)
			}
			if got, want := sortedEntries(c.Entries()), sortedEntries(ref.entries()); !slices.Equal(got, want) {
				t.Fatalf("op %d: entries %+v, reference %+v", step, got, want)
			}
		}
	})
}
