// Package device models the on-device half of the HyperTRIO design: the
// Pending Translation Buffer that tracks in-flight translations with
// out-of-order completion, and the Prefetch Unit (Prefetch Buffer +
// SID-predictor). The DevTLB itself is a tlb.Cache stage in
// internal/pipeline.
//
// Like internal/iommu, this package is time-free: internal/core drives
// these structures from the event kernel and charges latencies.
package device

import (
	"fmt"

	"hypertrio/internal/obs"
)

// PTB is the Pending Translation Buffer: a fixed pool of in-flight
// translation slots. A packet whose first missing translation cannot
// allocate a slot at arrival is dropped (and retried at the next arrival
// slot by the link model); translations complete out of order, each
// freeing its slot.
type PTB struct {
	capacity int
	inUse    int

	stats PTBStats
}

// NewPTB creates a buffer with the given number of slots.
func NewPTB(capacity int) *PTB {
	if capacity <= 0 {
		panic(fmt.Sprintf("device: PTB capacity must be positive, got %d", capacity))
	}
	return &PTB{capacity: capacity}
}

// Capacity returns the slot count.
func (p *PTB) Capacity() int { return p.capacity }

// InUse returns the number of occupied slots.
func (p *PTB) InUse() int { return p.inUse }

// Free returns the number of available slots.
func (p *PTB) Free() int { return p.capacity - p.inUse }

// Alloc takes one slot, reporting whether one was available.
func (p *PTB) Alloc() bool {
	if p.inUse >= p.capacity {
		p.stats.Rejected++
		return false
	}
	p.inUse++
	p.stats.Allocs++
	if p.inUse > p.stats.Peak {
		p.stats.Peak = p.inUse
	}
	return true
}

// Release frees one slot. Releasing an empty buffer panics: it means the
// model double-freed a translation.
func (p *PTB) Release() {
	if p.inUse == 0 {
		panic("device: PTB release with no slots in use")
	}
	p.inUse--
}

// PTBStats reports buffer pressure over a run.
type PTBStats struct {
	Allocs   uint64 // successful slot allocations
	Rejected uint64 // failed allocation attempts
	Peak     int    // high-water mark of occupied slots
}

// Stats returns a snapshot of the counters.
func (p *PTB) Stats() PTBStats { return p.stats }

// Register publishes the buffer's counters and occupancy into a metrics
// registry under prefix. The in_use gauge is what the time-series
// sampler reads to plot PTB occupancy over a run.
func (p *PTB) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".allocs", func() uint64 { return p.stats.Allocs })
	r.Counter(prefix+".rejected", func() uint64 { return p.stats.Rejected })
	r.Gauge(prefix+".in_use", func() float64 { return float64(p.inUse) })
	r.Gauge(prefix+".peak", func() float64 { return float64(p.stats.Peak) })
	r.Gauge(prefix+".capacity", func() float64 { return float64(p.capacity) })
}

// RejectN counts n failed allocation attempts in one step: link slots
// the caller knows would find the buffer as full as it is now. Calling
// it with a slot free panics: those attempts would have been admitted.
func (p *PTB) RejectN(n uint64) {
	if p.inUse < p.capacity {
		panic(fmt.Sprintf("device: PTB rejects %d attempts with %d of %d slots in use", n, p.inUse, p.capacity))
	}
	p.stats.Rejected += n
}
