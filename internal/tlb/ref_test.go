package tlb

import (
	"bytes"
	"math"
	"math/bits"
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

// fuzzWays are the way counts FuzzCacheMatchesRef builds: 1–4, then
// one and two full tag words (8, 16), each with a masked one-way tail
// (9, 17), and the 64-way context cache.
var fuzzWays = [...]int{1, 2, 3, 4, 8, 9, 16, 17, 64}

// fuzzKey decodes an op's key: SID from bits 3–4 of the op byte, tag
// from the arg byte. 1,024 keys over 128 tag values make equal tags in
// one set common.
func fuzzKey(op, arg byte) Key { return Key{SID: uint32(op>>3) & 3, Tag: uint64(arg)} }

// FuzzCacheMatchesRef drives Cache and refCache through the same
// byte-decoded operation stream and requires the same hit or miss, the
// same returned entry, the same invalidation counts, the same Stats and
// the same entries after every operation.
//
// Input: byte 0 picks the geometry (1, 2, 4 or 8 sets; ways from
// fuzzWays), byte 1 the policy (LRU, LFU or oracle) and the index mode.
// Then each op is a pair (op, arg) naming the key fuzzKey(op, arg):
//
//	op%8 0-3: access (Lookup, then Insert on a miss)
//	op%8 4:   Lookup
//	op%8 5:   Insert (a refresh when the key is present)
//	op%8 6:   Invalidate
//	op%8 7:   Flush if op >= 224, else InvalidateSID
//
// The oracle's future is the stream of every key the ops look up.
func FuzzCacheMatchesRef(f *testing.F) {
	geometry := func(sets, ways int) byte {
		return byte(slices.Index(fuzzWays[:], ways)*4 + bits.TrailingZeros(uint(sets)))
	}
	// ops encodes one op per key, the inverse of fuzzKey.
	ops := func(code byte, keys ...Key) []byte {
		var out []byte
		for _, key := range keys {
			out = append(out, byte(key.SID)<<3|code, byte(key.Tag))
		}
		return out
	}
	tags := func(tags ...uint64) []Key {
		var out []Key
		for _, t := range tags {
			out = append(out, Key{Tag: t})
		}
		return out
	}
	seed := func(sets, ways int, policy byte, parts ...[]byte) {
		f.Add(append([]byte{geometry(sets, ways), policy}, slices.Concat(parts...)...))
	}
	// LFU, one 2-way set: saturate A's counter (the row halves to A=7,
	// B=0), give B nine hits, then fill C: A is the victim.
	seed(1, 2, 1, ops(0, tags(0, 1)...), bytes.Repeat(ops(0, Key{Tag: 0}), 14),
		bytes.Repeat(ops(0, Key{Tag: 1}), 9), ops(0, tags(2, 0, 1)...))
	// Oracle, one 2-way set: blind fills of keys never looked up tie at
	// infinite reuse, and the lowest way goes.
	seed(1, 2, 2, ops(5, tags(2, 3, 5)...), ops(0, tags(1, 4, 1)...))
	// LRU, hashed, 4 sets × 1 way: one tag from four tenants.
	sids := []Key{{SID: 0}, {SID: 1}, {SID: 2}, {SID: 3}}
	seed(4, 1, 6, ops(0, sids...), ops(0, sids...))
	// LFU by SID, 2 sets × 2 ways: churn, then a tenant flush and a
	// broadcast flush.
	seed(2, 2, 4, ops(0, Key{0, 1}, Key{1, 1}, Key{2, 1}, Key{0, 1}), ops(4, Key{1, 1}),
		ops(6, Key{2, 1}), ops(0, Key{3, 1}), ops(7, Key{1, 0}), ops(0, Key{0, 2}), []byte{255, 0}, ops(0, Key{0, 2}))
	// LRU, one 4-way set holding two keys with equal tags: each hits
	// only itself, and invalidating one leaves the other.
	a, b := equalTagKeys()
	seed(1, 4, 0, ops(0, a, Key{Tag: 7}, b), ops(4, a, b), ops(6, a), ops(4, b, a), ops(5, a), ops(6, b), ops(4, a, b))
	// LFU, one 9-way set: fill the last way, the one lane of the second
	// tag word, then hit, evict and invalidate around it.
	nine := tags(0, 1, 2, 3, 4, 5, 6, 7, 8)
	seed(1, 9, 1, ops(0, nine...), ops(0, nine[8], nine[8], Key{Tag: 9}, Key{Tag: 10}), ops(6, nine[8]), ops(0, Key{Tag: 11}, nine[8]))
	// LRU, 1 set × 64 ways (the context cache): 65 tenants in turn, so
	// the 65th evicts the first, which then misses and evicts the second.
	var tenants []Key
	for t := uint64(0); t < 65; t++ {
		tenants = append(tenants, Key{SID: uint32(t & 3), Tag: t})
	}
	seed(1, 64, 0, ops(0, tenants...), ops(0, tenants[0], tenants[1], tenants[64]))

	policies := []PolicyKind{LRU, LFU, Oracle}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Name:   "fuzz",
			Sets:   1 << (data[0] % 4),
			Ways:   fuzzWays[data[0]/4%byte(len(fuzzWays))],
			Policy: policies[data[1]%3],
			Index:  IndexMode(data[1] / 3 % 3),
		}
		ops := data[2:]
		var future []Key
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i]%8 <= 4 {
				future = append(future, fuzzKey(ops[i], ops[i+1]))
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
			op, step := ops[i], i/2
			key := fuzzKey(op, ops[i+1])
			fill := Entry{Key: key, Value: uint64(step), PageShift: 12}
			switch code := op % 8; {
			case code <= 3:
				if !lookup(step, key) {
					c.Insert(fill)
					ref.insert(fill)
				}
			case code == 4:
				lookup(step, key)
			case code == 5:
				c.Insert(fill)
				ref.insert(fill)
			case code == 6:
				got := c.Invalidate(key)
				if want := ref.drop(func(k Key) bool { return k == key }) == 1; got != want {
					t.Fatalf("op %d: Invalidate(%v) = %v, reference %v", step, key, got, want)
				}
			case op >= 224:
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

// equalTagKeys finds two keys of the fuzz key space with equal tag
// bytes, so the seed that holds both exercises find's full-key compare.
func equalTagKeys() (Key, Key) {
	seen := map[byte]Key{}
	for arg := 0; arg < 256; arg++ {
		key := Key{Tag: uint64(arg)}
		if prev, ok := seen[tagOf(key)]; ok {
			return prev, key
		}
		seen[tagOf(key)] = key
	}
	panic("no two tags 0-255 share a tag byte")
}
