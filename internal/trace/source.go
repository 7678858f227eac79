package trace

import "hypertrio/internal/workload"

// Meta is the identity of a hyper-tenant packet stream: everything a
// consumer needs to build matching address spaces and report the run,
// without holding the packets themselves.
type Meta struct {
	Benchmark  workload.Kind
	Interleave Interleave
	Tenants    int
	Seed       int64
	Scale      float64
	// Profile is the effective per-tenant calibration the stream is
	// generated with (overrides already applied).
	Profile workload.Profile
	// Classes, when non-empty, partitions the population into contiguous
	// per-class SID ranges (mixed-population sources): class i covers the
	// Tenants[i] SIDs following the previous classes, starting at SID 1.
	// Empty means one uniform class of Profile across all tenants.
	Classes []TenantClass
}

// Source is a pull-based iterator over a hyper-tenant packet stream — the
// abstraction that lets the performance model replay either a fully
// materialized *Trace or an online generator-backed stream (O(tenants)
// memory instead of O(requests)) through one code path.
//
// A Source is single-consumer and stateful: Next advances it. Multi-pass
// consumers call Reset to rewind to the exact beginning; sources are
// deterministic, so every pass yields the identical sequence.
type Source interface {
	// Meta returns the stream's identity.
	Meta() Meta
	// Next returns the next packet in arrival order, or ok=false when the
	// stream is exhausted (after which it keeps returning false).
	Next() (pkt workload.Packet, ok bool)
	// Reset rewinds the source to the beginning of the identical stream.
	Reset()
	// Materialized returns the fully constructed trace behind the source,
	// or nil for online sources. Consumers that genuinely need the whole
	// sequence at once (Belady-oracle precomputation, unmap lookahead
	// scans) use it and must handle nil by failing fast or degrading
	// conservatively — never by silently draining the source.
	Materialized() *Trace
}

// TraceSource adapts a materialized *Trace to the Source interface. The
// trace is shared and read-only (see the Trace immutability contract);
// the adapter holds only a cursor, so any number of adapters may replay
// one trace concurrently.
type TraceSource struct {
	tr  *Trace
	pos int
}

// Source returns a fresh pull adapter positioned at the trace's start.
func (t *Trace) Source() *TraceSource { return &TraceSource{tr: t} }

// Meta returns the trace's identity.
func (s *TraceSource) Meta() Meta { return s.tr.Meta }

// Next returns the next packet of the trace.
func (s *TraceSource) Next() (workload.Packet, bool) {
	if s.pos >= len(s.tr.Packets) {
		return workload.Packet{}, false
	}
	p := s.tr.Packets[s.pos]
	s.pos++
	return p, true
}

// Reset rewinds to the first packet.
func (s *TraceSource) Reset() { s.pos = 0 }

// Materialized returns the backing trace.
func (s *TraceSource) Materialized() *Trace { return s.tr }
