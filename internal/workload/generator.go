package workload

import (
	"math/rand"

	"hypertrio/internal/mem"
)

// Packet is one arriving packet's translation work: the three gIOVAs the
// device must translate (ring pointer, data buffer, mailbox notification)
// plus an optional unmap marker emitted when the driver recycled a data
// page just before this packet.
type Packet struct {
	SID     mem.SID
	Ring    uint64 // gIOVA of the ring-descriptor read
	Data    uint64 // gIOVA of the data-buffer write
	Mailbox uint64 // gIOVA of the notification write

	// UnmapIOVA, when non-zero, is the page base the tenant's driver
	// unmapped before this packet; translation caches must drop it.
	UnmapIOVA  uint64
	UnmapShift uint8
}

// PacketBytes is the modeled wire size of one packet: a 1500 B Ethernet
// payload plus framing and inter-packet gap (Table II: 1542 B).
const PacketBytes = 1542

// RequestsPerPacket is the number of translation requests each accepted
// packet generates.
const RequestsPerPacket = 3

// stream is one in-flight buffer cursor inside a tenant.
type stream struct {
	page   int // index into the data-page ring
	left   int // packets remaining on this page
	offset uint64
}

// Generator produces one tenant's deterministic packet stream. Budget is
// expressed in translation requests (3 per packet) to align with the
// paper's Table III accounting.
type Generator struct {
	p       Profile
	sid     mem.SID
	rng     *rand.Rand
	budget  int // remaining requests
	total   int // initial request budget
	emitted int // packets emitted

	initLeft int // init-phase packets remaining
	initIdx  int

	streams []stream

	pendingUnmap      uint64
	pendingUnmapShift uint8
}

// BudgetFor returns the deterministic per-tenant request budget for a
// tenant: a value in [MinRequests, MaxRequests] scaled by scale, drawn
// from the tenant's seeded RNG (different tenants recorded logs of
// different lengths — Table III).
func BudgetFor(p Profile, sid mem.SID, seed int64, scale float64) int {
	return BudgetForRNG(p, sid, seed, scale, StdRNG)
}

// BudgetForRNG is BudgetFor with an explicit random-source implementation
// (see RNG); different implementations draw different budgets.
func BudgetForRNG(p Profile, sid mem.SID, seed int64, scale float64, r RNG) int {
	rng := rand.New(r.source(seed ^ int64(sid)*0x2545F4914F6CDD1D))
	span := p.MaxRequests - p.MinRequests
	raw := p.MinRequests
	if span > 0 {
		raw += rng.Intn(span + 1)
	}
	n := int(float64(raw) * scale)
	if n < RequestsPerPacket {
		n = RequestsPerPacket
	}
	return n
}

// NewGenerator builds the stream for one tenant. scale in (0, 1] shrinks
// the Table III request budgets so experiments finish quickly while
// preserving the stream's structure.
func NewGenerator(p Profile, sid mem.SID, seed int64, scale float64) *Generator {
	return NewGeneratorRNG(p, sid, seed, scale, StdRNG)
}

// NewGeneratorRNG is NewGenerator with an explicit random-source
// implementation. CompactRNG shrinks a generator's footprint from ~5 KB
// to a few hundred bytes — the difference between 5 GB and 300 MB of
// generator state at 10⁶ tenants — at the cost of different (but equally
// deterministic) sequences.
func NewGeneratorRNG(p Profile, sid mem.SID, seed int64, scale float64, r RNG) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if !(scale > 0) {
		panic("workload: scale must be positive")
	}
	g := &Generator{
		p:   p,
		sid: sid,
		rng: rand.New(r.source(seed ^ int64(sid)*0x2545F4914F6CDD1D ^ 0x5bf0_3635)),
	}
	g.total = BudgetForRNG(p, sid, seed, scale, r)
	g.budget = g.total
	// Init phase shrinks with scale too, capped to a third of the budget
	// so steady state always dominates.
	g.initLeft = int(float64(p.InitPages*p.InitTouches) * scale)
	if max := g.total / RequestsPerPacket / 3; g.initLeft > max {
		g.initLeft = max
	}
	g.streams = make([]stream, p.Streams)
	for i := range g.streams {
		g.streams[i] = stream{
			page: (i * p.DataPages) / p.Streams,
			left: 1 + g.rng.Intn(p.RunLength), // staggered starts
		}
	}
	return g
}

// Total returns the tenant's initial request budget.
func (g *Generator) Total() int { return g.total }

// Remaining returns how many translation requests are left in the budget.
func (g *Generator) Remaining() int { return g.budget }

// Emitted returns how many packets have been produced so far.
func (g *Generator) Emitted() int { return g.emitted }

// Next returns the next packet, or ok=false when the budget is exhausted.
func (g *Generator) Next() (Packet, bool) {
	if g.budget < RequestsPerPacket {
		return Packet{}, false
	}
	g.budget -= RequestsPerPacket
	g.emitted++

	pkt := Packet{
		SID:     g.sid,
		Ring:    RingPageFor(g.sid) + uint64(g.emitted%512)*8, // descriptor slot within the ring page
		Mailbox: MailboxFor(g.sid),
	}
	if g.pendingUnmap != 0 {
		pkt.UnmapIOVA, pkt.UnmapShift = g.pendingUnmap, g.pendingUnmapShift
		g.pendingUnmap, g.pendingUnmapShift = 0, 0
	}

	if g.initLeft > 0 {
		// Startup phase: DMA setup touches the init-time 4 KB pages.
		idx := g.initIdx % g.p.InitPages
		g.initIdx++
		g.initLeft--
		pkt.Data = uint64(InitBase) + uint64(idx)*mem.PageSize
		return pkt, true
	}

	// Most packets land on the primary stream (stream 0), producing the
	// long sequential page runs of Fig. 8b; background streams are
	// touched occasionally, keeping the tenant's whole active set live.
	cur := 0
	if len(g.streams) > 1 && uint8(g.rng.Intn(256)) < g.p.BackgroundChance {
		cur = 1 + g.rng.Intn(len(g.streams)-1)
	}
	s := &g.streams[cur]
	dataShift := uint(g.p.DataShift())
	pageSize := uint64(1) << dataShift
	pkt.Data = g.p.DataRegionBase() + uint64(s.page)<<dataShift + s.offset
	s.offset = (s.offset + 1536) % pageSize
	s.left--
	if s.left == 0 {
		// The driver consumed this page's buffers: unmap it and move to
		// the next page in the ring (or jump, for irregular workloads).
		g.pendingUnmap = g.p.DataRegionBase() + uint64(s.page)<<dataShift
		g.pendingUnmapShift = g.p.DataShift()
		if g.p.JumpChance > 0 && uint8(g.rng.Intn(256)) < g.p.JumpChance {
			s.page = g.rng.Intn(g.p.DataPages)
		} else {
			s.page = (s.page + 1) % g.p.DataPages
		}
		s.left = g.p.RunLength
		s.offset = 0
	}
	return pkt, true
}
