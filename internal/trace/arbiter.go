package trace

import "math/rand"

// Arbiter is the Trace Constructor's inter-tenant arbitration (§IV-B),
// the one copy shared by Stream and the collector's Merge. It arbitrates
// over tenant indices 0..n-1 laid out as contiguous class ranges, each
// class with one weight. Round-robin visits tenants in index order and
// gives a weight-w tenant w bursts per turn; random arbitration draws
// each burst's tenant with probability proportional to its weight. It
// keeps no per-tenant state: a draw walks the classes, not the tenants.
type Arbiter struct {
	iv    Interleave
	seed  int64 // the interleave RNG's seed
	spans []span
	sumW  int
	rng   *rand.Rand

	cur  int // tenant of the current burst
	cls  int // class of cur (round-robin only)
	left int // packets left in the current burst
}

// span is one class range: tenant indices below end (from the previous
// span's end), each of the same weight.
type span struct{ end, weight int }

// NewArbiter arbitrates among n weight-1 tenants.
func NewArbiter(iv Interleave, seed int64, n int) *Arbiter {
	return newArbiter(iv, seed, []ClassSpec{{Tenants: n}})
}

func newArbiter(iv Interleave, seed int64, classes []ClassSpec) *Arbiter {
	a := &Arbiter{iv: iv, seed: seed ^ 0x7261_6e64}
	a.rng = rand.New(rand.NewSource(a.seed))
	end := 0
	for _, cl := range classes {
		w := max(cl.Weight, 1)
		end += cl.Tenants
		a.spans = append(a.spans, span{end, w})
		a.sumW += cl.Tenants * w
	}
	return a
}

// reset rewinds to the start of the identical arbitration sequence.
func (a *Arbiter) reset() {
	a.rng.Seed(a.seed)
	a.cur, a.cls, a.left = 0, 0, 0
}

// Next returns the tenant index the next packet slot goes to.
func (a *Arbiter) Next() int {
	if a.left == 0 {
		if a.iv.Kind == Random {
			a.draw()
			a.left = a.iv.Burst
		} else {
			a.left = a.iv.Burst * a.spans[a.cls].weight
		}
	}
	t := a.cur
	a.left--
	if a.left == 0 && a.iv.Kind == RoundRobin {
		a.cur++
		if a.cur == a.spans[a.cls].end {
			a.cls++
			if a.cls == len(a.spans) {
				a.cur, a.cls = 0, 0
			}
		}
	}
	return t
}

// draw picks a random burst's tenant. Intn(sumW) indexes the tenants'
// weight runs laid end to end, so tenant i is drawn with probability
// weight(i)/sumW; the span walk finds the run in O(classes).
func (a *Arbiter) draw() {
	d, start := a.rng.Intn(a.sumW), 0
	for _, s := range a.spans {
		w := (s.end - start) * s.weight
		if d < w {
			a.cur = start + d/s.weight
			return
		}
		d -= w
		start = s.end
	}
}
