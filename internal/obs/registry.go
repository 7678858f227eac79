package obs

import (
	"fmt"
	"math/bits"
	"sort"
)

// Histogram is a power-of-two-bucketed distribution: a value v lands in
// the bucket with inclusive upper bound 2^bits.Len64(v)-1. The zero
// value is ready to use; Observe is one shift-count plus two adds.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [65]uint64 // index = bits.Len64(v)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// HistogramBucket is one non-empty bucket of a snapshot: N values were
// observed with value <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistogramSnapshot is an exportable view of a Histogram.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns the non-empty buckets in ascending bound order.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := ^uint64(0) // i == 64: everything with the top bit set
		if i < 64 {
			le = uint64(1)<<uint(i) - 1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, N: n})
	}
	return s
}

// Registry is a name directory over counts owned by the model's
// components. It stores no values itself: a counter or gauge is a
// function that reads the count where the component keeps it (a plain
// field of the component's Stats), and a histogram is the component's
// own cell, so registering costs nothing on the simulation path.
//
// All methods are nil-safe no-ops on a nil *Registry, so components can
// register unconditionally. A Registry is not safe for concurrent use;
// each simulation owns its own.
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkNew(name string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
}

// Counter registers a monotonically increasing count under name; read
// is called at snapshot time. Registering a duplicate name panics:
// metric names are a fixed schema, so a clash is a programming error.
func (r *Registry) Counter(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.checkNew(name)
	r.counters[name] = read
}

// Gauge registers a derived instantaneous value under name (e.g. PTB
// occupancy); fn is called at snapshot/sample time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.checkNew(name)
	r.gauges[name] = fn
}

// Histogram registers an existing histogram cell under name.
func (r *Registry) Histogram(name string, h *Histogram) {
	if r == nil {
		return
	}
	r.checkNew(name)
	r.hists[name] = h
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterValue returns the value of a registered counter by name.
func (r *Registry) CounterValue(name string) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	read, ok := r.counters[name]
	if !ok {
		return 0, false
	}
	return read(), true
}

// Snapshot is a point-in-time export of every registered metric. Maps
// marshal with sorted keys, so the JSON form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every counter, gauge and histogram.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for n, read := range r.counters {
			s.Counters[n] = read()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, fn := range r.gauges {
			s.Gauges[n] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}
