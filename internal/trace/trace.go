// Package trace implements the HyperSIO Trace Constructor: it merges
// per-tenant packet streams into a single hyper-tenant trace using the
// paper's inter-tenant interleavings (round-robin or random, with a
// configurable burst length), truncates at the edge effect (generation
// stops when any tenant runs out of requests, §IV-B), computes Table III
// style statistics, and serializes traces to a compact binary format.
package trace

import (
	"fmt"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// InterleaveKind selects the inter-tenant arbitration the constructor
// models (§IV-B): RoundRobin matches a NIC's hardware queue arbiter with
// steady long-lived streams; Random models tenants issuing independent
// requests.
type InterleaveKind uint8

const (
	RoundRobin InterleaveKind = iota
	Random
)

func (k InterleaveKind) String() string {
	switch k {
	case RoundRobin:
		return "RR"
	case Random:
		return "RAND"
	}
	return fmt.Sprintf("InterleaveKind(%d)", uint8(k))
}

// Interleave is an interleaving with its burst length: RR1, RR4, RAND1
// in the paper's notation (the suffix is the number of consecutive
// packets one tenant sends before the arbiter moves on).
type Interleave struct {
	Kind  InterleaveKind
	Burst int
}

// The paper's three evaluated interleavings.
var (
	RR1   = Interleave{RoundRobin, 1}
	RR4   = Interleave{RoundRobin, 4}
	RAND1 = Interleave{Random, 1}
)

// String renders the paper's notation, e.g. "RR4".
func (iv Interleave) String() string { return fmt.Sprintf("%v%d", iv.Kind, iv.Burst) }

// Validate rejects an unknown arbitration kind or a burst below one.
func (iv Interleave) Validate() error {
	if iv.Kind != RoundRobin && iv.Kind != Random {
		return fmt.Errorf("trace: unknown interleave kind %v", iv.Kind)
	}
	if iv.Burst <= 0 {
		return fmt.Errorf("trace: interleave burst must be positive")
	}
	return nil
}

// ParseInterleave accepts "RR1", "rr4", "RAND1", ...
func ParseInterleave(s string) (Interleave, error) {
	var kind InterleaveKind
	var burst int
	var tail string
	switch {
	case len(s) >= 4 && (s[:4] == "RAND" || s[:4] == "rand"):
		kind, tail = Random, s[4:]
	case len(s) >= 2 && (s[:2] == "RR" || s[:2] == "rr"):
		kind, tail = RoundRobin, s[2:]
	default:
		return Interleave{}, fmt.Errorf("trace: unknown interleaving %q", s)
	}
	if _, err := fmt.Sscanf(tail, "%d", &burst); err != nil || burst <= 0 {
		return Interleave{}, fmt.Errorf("trace: bad burst in %q", s)
	}
	return Interleave{kind, burst}, nil
}

// TenantStat summarizes one tenant's contribution to a trace.
type TenantStat struct {
	SID      mem.SID
	Budget   int // requests available in the tenant's log
	Consumed int // requests actually placed in the hyper-trace
	Packets  int
}

// Trace is a constructed hyper-tenant trace: the identity of its
// stream (Meta, whose fields read as tr.Benchmark, tr.Tenants, ...) plus
// the packets and per-tenant accounting. Meta.Classes is not part of the
// binary serialization format — mixes are regenerated from their
// scenario, never shipped as trace files.
//
// Immutability contract: a Trace is frozen the moment Construct (or
// binary decoding) returns. Nothing in this module writes to Packets,
// Stats or Profile afterwards — core.System treats its trace as strictly
// read-only, and Profile contains only scalar fields, so copying it by
// value shares nothing mutable. Any number of concurrent simulations may
// therefore replay one *Trace; internal/runner's trace cache relies on
// this to hand a single constructed trace to every worker goroutine
// that sweeps it (TestSharedTraceConcurrentRuns proves the contract
// under the race detector).
type Trace struct {
	Meta
	Packets []workload.Packet
	Stats   []TenantStat
}

// Requests returns the total number of translation requests in the trace.
func (t *Trace) Requests() int {
	return len(t.Packets) * workload.RequestsPerPacket
}

// MaxTenantBudget / MinTenantBudget return Table III's per-tenant
// translation-request bounds (over the tenants' recorded logs).
func (t *Trace) MaxTenantBudget() int {
	max := 0
	for _, s := range t.Stats {
		if s.Budget > max {
			max = s.Budget
		}
	}
	return max
}

func (t *Trace) MinTenantBudget() int { return minBudget(t.Stats) }

// minBudget is the smallest per-tenant request budget — the edge-effect
// bound on stream length.
func minBudget(stats []TenantStat) int {
	if len(stats) == 0 {
		return 0
	}
	min := stats[0].Budget
	for _, s := range stats[1:] {
		if s.Budget < min {
			min = s.Budget
		}
	}
	return min
}

// Config drives Construct.
type Config struct {
	Benchmark  workload.Kind
	Tenants    int
	Interleave Interleave
	Seed       int64
	// Scale shrinks the per-tenant Table III request budgets; 1.0 is
	// paper scale (tens of millions of requests at 1024 tenants).
	Scale float64
	// Profile, when non-nil, overrides the calibrated profile for
	// Benchmark — the hook for user-defined workloads (e.g. a key-value
	// store with small values, the paper's introductory motivation).
	Profile *workload.Profile
	// RNG selects the per-tenant random-source implementation.
	// workload.StdRNG (the zero value) reproduces every golden sequence;
	// workload.CompactRNG shrinks generator state ~60x for million-tenant
	// streaming and draws different (still deterministic) sequences. The
	// choice is part of a stream's identity but is not serialized: binary
	// traces are always written from StdRNG constructions.
	RNG workload.RNG
}

func (c Config) validate() error {
	if c.Tenants <= 0 {
		return fmt.Errorf("trace: tenants must be positive, got %d", c.Tenants)
	}
	if !c.Benchmark.Known() {
		return fmt.Errorf("trace: unknown benchmark %v", c.Benchmark)
	}
	if err := c.Interleave.Validate(); err != nil {
		return err
	}
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("trace: scale must be in (0,1], got %v", c.Scale)
	}
	return nil
}

// Construct builds the hyper-tenant trace. Tenant SIDs are 1..Tenants.
// Generation stops the moment any tenant's generator is exhausted — the
// paper's edge-effect rule, which keeps every modeled tenant active for
// the whole trace.
func Construct(c Config) (*Trace, error) { return drain(NewStream(c)) }

// RequestType labels the three translations of one packet.
type RequestType uint8

const (
	RingPointer RequestType = iota
	DataBuffer
	Mailbox
)

func (t RequestType) String() string {
	switch t {
	case RingPointer:
		return "ring"
	case DataBuffer:
		return "data"
	case Mailbox:
		return "mailbox"
	}
	return fmt.Sprintf("RequestType(%d)", uint8(t))
}

// Request is one flattened translation request; Flatten expands packets
// into the per-request stream (used by oracle precomputation and by the
// trace inspector CLI).
type Request struct {
	SID  mem.SID
	IOVA uint64
	Type RequestType
}

// Flatten expands the trace's packets into individual requests in
// arrival order: ring, data, mailbox per packet.
func (t *Trace) Flatten() []Request {
	out := make([]Request, 0, t.Requests())
	for _, p := range t.Packets {
		out = append(out,
			Request{p.SID, p.Ring, RingPointer},
			Request{p.SID, p.Data, DataBuffer},
			Request{p.SID, p.Mailbox, Mailbox},
		)
	}
	return out
}
