package trace

import (
	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// Stream is the online hyper-tenant source: it synthesizes the
// interleaved packet stream on the fly from per-tenant generators instead
// of materializing it. Memory is O(tenants) — the generators, their
// stats and one arbiter — independent of trace length, which is what
// makes 10⁶-tenant runs possible (a materialized trace at that scale
// would hold hundreds of millions of packets).
//
// A uniform stream (NewStream) is the one-class, weight-1 case of a
// mixed population (NewMixStream); both run the same generation loop.
// Construct and ConstructMix drain a Stream to build their *Trace, so a
// Stream and the materialized trace of the same config yield the
// identical packet sequence by construction; the golden suite pins this
// bit-for-bit.
type Stream struct {
	meta Meta
	mix  MixConfig

	gens  []*workload.Generator
	stats []TenantStat
	arb   *Arbiter
	done  bool
}

// NewStream validates the config and builds the online source. The
// per-tenant generator population is allocated up front (the O(tenants)
// cost); no per-packet state ever accumulates.
func NewStream(c Config) (*Stream, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	profile := workload.ProfileFor(c.Benchmark)
	if c.Profile != nil {
		profile = *c.Profile
		if err := profile.Validate(); err != nil {
			return nil, err
		}
	}
	return newStream(MixConfig{
		Classes:    []ClassSpec{{Profile: profile, Tenants: c.Tenants, Scale: c.Scale}},
		Interleave: c.Interleave,
		Seed:       c.Seed,
		RNG:        c.RNG,
	}, Meta{
		Benchmark:  c.Benchmark,
		Interleave: c.Interleave,
		Tenants:    c.Tenants,
		Seed:       c.Seed,
		Scale:      c.Scale,
		Profile:    profile,
	}), nil
}

func newStream(c MixConfig, meta Meta) *Stream {
	s := &Stream{
		meta:  meta,
		mix:   c,
		gens:  make([]*workload.Generator, meta.Tenants),
		stats: make([]TenantStat, meta.Tenants),
		arb:   newArbiter(c.Interleave, c.Seed, c.Classes),
	}
	s.Reset()
	return s
}

// Reset rewinds the stream to its beginning: generators and the
// arbiter are re-seeded, so the next pass is identical. SIDs are
// assigned contiguously in class order starting at 1.
func (s *Stream) Reset() {
	i := 0
	for _, cl := range s.mix.Classes {
		for range cl.Tenants {
			sid := mem.SID(i + 1)
			s.gens[i] = workload.NewGeneratorRNG(cl.Profile, sid, s.mix.Seed, cl.Scale, s.mix.RNG)
			s.stats[i] = TenantStat{SID: sid, Budget: s.gens[i].Total()}
			i++
		}
	}
	s.arb.reset()
	s.done = false
}

// Meta returns the stream's identity.
func (s *Stream) Meta() Meta { return s.meta }

// Next synthesizes the next packet of the interleaved stream: the
// arbiter picks the tenant, and the first exhausted tenant ends the
// stream (the paper's edge-effect truncation, §IV-B).
func (s *Stream) Next() (workload.Packet, bool) {
	if s.done {
		return workload.Packet{}, false
	}
	t := s.arb.Next()
	pkt, ok := s.gens[t].Next()
	if !ok {
		s.done = true
		return workload.Packet{}, false
	}
	st := &s.stats[t]
	st.Packets++
	st.Consumed += workload.RequestsPerPacket
	return pkt, true
}

// Materialized returns nil: the stream never holds the whole sequence.
func (s *Stream) Materialized() *Trace { return nil }

// TenantStats returns the per-tenant accounting accumulated so far
// (budgets are final from construction; Consumed/Packets grow as the
// stream is drained). The returned slice is the stream's live state.
func (s *Stream) TenantStats() []TenantStat { return s.stats }

// drain materializes a stream: the one path from online source to
// *Trace, shared by Construct and ConstructMix.
func drain(s *Stream, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	// Pre-size: the shortest budget bounds the trace length.
	tr := &Trace{Meta: s.meta, Packets: make([]workload.Packet, 0, (minBudget(s.stats)/workload.RequestsPerPacket)*s.meta.Tenants)}
	for {
		pkt, ok := s.Next()
		if !ok {
			break
		}
		tr.Packets = append(tr.Packets, pkt)
	}
	tr.Stats = s.stats
	return tr, nil
}
