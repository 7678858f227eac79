// Package trace implements the HyperSIO Trace Constructor: it merges
// per-tenant packet streams into a single hyper-tenant trace using the
// paper's inter-tenant interleavings (round-robin or random, with a
// configurable burst length), truncates at the edge effect (generation
// stops when any tenant runs out of requests, §IV-B) and computes Table
// III style statistics. A trace is always built from its Config; it is
// never read from a file.
package trace

import (
	"errors"
	"fmt"
	"strconv"

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

// ParseInterleave accepts "RR1", "rr4", "RAND1", ...: the kind, then
// the burst in plain decimal digits, with no sign, space or leading zero,
// so every accepted string is Interleave.String up to case.
func ParseInterleave(s string) (Interleave, error) {
	var kind InterleaveKind
	var tail string
	switch {
	case len(s) >= 4 && (s[:4] == "RAND" || s[:4] == "rand"):
		kind, tail = Random, s[4:]
	case len(s) >= 2 && (s[:2] == "RR" || s[:2] == "rr"):
		kind, tail = RoundRobin, s[2:]
	default:
		return Interleave{}, fmt.Errorf("trace: unknown interleaving %q", s)
	}
	// Atoi takes a leading sign; a first digit of 1-9 rules it and a
	// leading zero out.
	burst, err := strconv.Atoi(tail)
	if err != nil || tail[0] < '1' || tail[0] > '9' {
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
// the packets and per-tenant accounting.
//
// Immutability contract: a Trace is frozen the moment Construct (or
// ConstructMix) returns. Nothing in this module writes to Packets,
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
	// streaming and draws different (still deterministic) sequences.
	RNG workload.RNG
}

// MaxTenants caps a trace's tenants, and so the per-tenant state
// NewStream allocates up front; 10⁶-tenant streams fit.
const MaxTenants = 1 << 21

// MaxStdRNGTenants caps a population drawn from the standard RNG: each
// of its generators carries ~5 KB of math/rand state, so the cap holds
// the population to ~640 MB. Larger populations use the compact RNG.
const MaxStdRNGTenants = 1 << 17

// MaxPackets caps a materialized trace (and the Oracle's future, which
// is read from the same packets): ~1.5 GiB of packets, which admits
// paper scale at 1024 tenants. Longer runs replay an online Stream.
const MaxPackets = 1 << 25

// ErrTooLarge reports a trace that would exceed MaxPackets if
// materialized. Construct returns it before allocating any packet when
// the tenants' budgets alone pass the cap.
var ErrTooLarge = errors.New("trace: too many packets to materialize")

// checkRNG rejects a standard-RNG population past MaxStdRNGTenants.
func checkRNG(rng workload.RNG, tenants int) error {
	if rng == workload.StdRNG && tenants > MaxStdRNGTenants {
		return fmt.Errorf("trace: %d tenants exceed the standard RNG's cap of %d (~5 KB of state each); use the compact RNG (-compact-rng, \"compact_rng\")",
			tenants, MaxStdRNGTenants)
	}
	return nil
}

func (c Config) validate() error {
	if c.Tenants <= 0 || c.Tenants > MaxTenants {
		return fmt.Errorf("trace: tenants must be in 1..%d, got %d", MaxTenants, c.Tenants)
	}
	if err := checkRNG(c.RNG, c.Tenants); err != nil {
		return err
	}
	if !c.Benchmark.Known() {
		return fmt.Errorf("trace: unknown benchmark %v", c.Benchmark)
	}
	if err := c.Interleave.Validate(); err != nil {
		return err
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return fmt.Errorf("trace: scale must be in (0,1], got %v", c.Scale)
	}
	return nil
}

// Construct builds the hyper-tenant trace. Tenant SIDs are 1..Tenants.
// Generation stops the moment any tenant's generator is exhausted — the
// paper's edge-effect rule, which keeps every modeled tenant active for
// the whole trace. A trace longer than MaxPackets fails with
// ErrTooLarge.
func Construct(c Config) (*Trace, error) { return drain(NewStream(c)) }
