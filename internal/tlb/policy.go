package tlb

import (
	"bytes"
	"fmt"
	"slices"
)

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least recently used way.
	LRU PolicyKind = iota
	// LFU evicts the least frequently used way, tracking accesses in a
	// 4-bit counter per way and halving the whole row when any counter
	// saturates — the scheme the paper motivates from the single-tenant
	// access-frequency analysis (§IV-D, §V-C).
	LFU
	// Oracle evicts the way whose next use lies furthest in the future
	// (Belady's MIN); it requires future knowledge via SetFuture.
	Oracle
)

// String returns the policy's conventional name.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "LRU"
	case LFU:
		return "LFU"
	case Oracle:
		return "oracle"
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(p))
}

// ParsePolicy converts a name (as accepted by the CLIs) to a PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "lru", "LRU":
		return LRU, nil
	case "lfu", "LFU":
		return LFU, nil
	case "oracle", "belady", "min":
		return Oracle, nil
	}
	return 0, fmt.Errorf("tlb: unknown policy %q (want lru, lfu or oracle)", s)
}

// victim picks the way of the set at base to fill: the lowest free way,
// else the least recently used way under LRU, the least frequently used
// under LFU (the less recently used of equals), and under the oracle the
// way whose next use lies furthest ahead. A tie keeps the lowest way.
//
// LRU and LFU rank the ways, by lastUse or by freq<<56 | lastUse, and
// take the lowest way of minimum rank. A free way ranks 0. A filled
// way's lastUse is the tick of its last hit, fill or refresh: at least
// 1, below 2⁵⁶, and its own, since each tick touches one way. So while
// the set has a free way, the lowest one is the minimum. LRU finds the
// minimum lastUse with branch-free min, then the first way holding it;
// that beats tracking the argmin on the 64-way context cache.
func (c *Cache) victim(base int) int {
	ways := c.cfg.Ways
	use := c.lastUse[base : base+ways]
	switch c.cfg.Policy {
	case LRU:
		low := use[0]
		for _, u := range use[1:] {
			low = min(low, u)
		}
		return slices.Index(use, low)
	case LFU:
		freq := c.freq[base : base+ways]
		best, low := 0, uint64(freq[0])<<56|use[0]
		for i := 1; i < ways; i++ {
			if r := uint64(freq[i])<<56 | use[i]; r < low {
				best, low = i, r
			}
		}
		return best
	}
	if i := bytes.IndexByte(c.tags[base:base+ways], 0); i >= 0 {
		return i
	}
	if c.future == nil {
		panic("tlb: oracle cache used without SetFuture")
	}
	best, bestNext := 0, c.future.Next(c.entries[base].Key)
	for i := 1; i < ways; i++ {
		if n := c.future.Next(c.entries[base+i].Key); n > bestNext {
			best, bestNext = i, n
		}
	}
	return best
}
