package tlb

import "fmt"

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

// victim picks the way of a full set to evict: the least recently used
// way under LRU, the least frequently used under LFU (the less recently
// used of equals), and under the oracle the way whose next use lies
// furthest ahead. A tie keeps the lowest way.
func (c *Cache) victim(set []slot) int {
	best := 0
	switch c.cfg.Policy {
	case LRU:
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
	case LFU:
		for i := 1; i < len(set); i++ {
			if set[i].freq < set[best].freq ||
				(set[i].freq == set[best].freq && set[i].lastUse < set[best].lastUse) {
				best = i
			}
		}
	case Oracle:
		if c.future == nil {
			panic("tlb: oracle cache used without SetFuture")
		}
		bestNext := c.future.Next(set[0].entry.Key)
		for i := 1; i < len(set); i++ {
			if n := c.future.Next(set[i].entry.Key); n > bestNext {
				best, bestNext = i, n
			}
		}
	}
	return best
}
