// Package fault is the simulator's deterministic fault- and
// event-injection subsystem. A Plan is a seedable, reproducible script of
// timed events — targeted and broadcast TLB invalidations, mid-flight
// page-table remaps, walker faults with retry/backoff, and tenant churn
// (SID teardown / re-attach) — that an Injector schedules into the
// sim.Engine as typed events and applies to the running system through
// the Target interface (implemented by core.System over pipeline.Chain's
// invalidation methods).
//
// The subsystem is zero-cost-off: without a plan no Injector exists, no
// hook is installed, and the simulation is byte-identical to a build
// without this package (the quick-suite golden manifest pins this).
package fault

import (
	"fmt"
	"sort"

	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
)

// Kind classifies one scripted event.
type Kind uint8

const (
	// InvalidatePage drops one page's translation from every stage that
	// caches it (DevTLB, Prefetch Buffer, chipset IOTLB, walk caches,
	// IOVA history) — the ATS/IOTLB invalidation command a driver unmap
	// issues. The page's next walk is a forced re-walk.
	InvalidatePage Kind = iota
	// InvalidateTenant drops every cached object belonging to one SID
	// across the chain — a domain-wide invalidation.
	InvalidateTenant
	// FlushAll empties every translation cache in the datapath — a
	// broadcast (global) invalidation.
	FlushAll
	// Remap rewrites the page's guest mapping to a fresh physical frame
	// mid-flight (the guest recycling a buffer). A well-behaved remap is
	// followed by the matching invalidation immediately; a Silent remap
	// skips it, opening a stale-translation window that lasts until a
	// later InvalidatePage closes it.
	Remap
	// WalkerFault makes page-table walk attempts fault: the walker backs
	// off per the plan's RetryPolicy and re-attempts, succeeding once the
	// fault window has passed or the host has serviced the fault
	// (MaxRetries reached). N arms the next N attempts; Dur arms every
	// attempt inside [At, At+Dur).
	WalkerFault
	// Detach tears one tenant down (SID teardown): every per-PTag cached
	// state — DevTLB and walk-cache entries, prefetch buffer entries,
	// predictor knowledge, IOVA history — is flushed.
	Detach
	// Attach marks the tenant's re-attach after a Detach. Page tables
	// persist across the pair, so the re-attached tenant restarts cold
	// but correct.
	Attach

	kindCount // sentinel
)

var kindNames = [...]string{
	InvalidatePage:   "invalidate_page",
	InvalidateTenant: "invalidate_tenant",
	FlushAll:         "flush_all",
	Remap:            "remap",
	WalkerFault:      "walker_fault",
	Detach:           "detach",
	Attach:           "attach",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString parses the JSON name of a kind.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown event kind %q", s)
}

// Event is one scripted fault at one simulated instant.
type Event struct {
	At   sim.Time // when the event fires
	Kind Kind
	// SID targets per-tenant kinds (InvalidatePage, InvalidateTenant,
	// Remap, Detach, Attach).
	SID mem.SID
	// IOVA and Shift address page-scoped kinds (InvalidatePage, Remap)
	// at the mapping's native page-size class.
	IOVA  uint64
	Shift uint8
	// N arms WalkerFault for the next N walk attempts (default 1).
	N int
	// Dur arms WalkerFault for every attempt within [At, At+Dur).
	Dur sim.Duration
	// Silent suppresses the invalidation a Remap would otherwise issue,
	// opening a stale-translation window.
	Silent bool
}

// RetryPolicy governs how a faulted walk attempt retries: the walker
// backs off Backoff on the first retry, doubling each further retry up to
// BackoffMax; after MaxRetries faulted attempts the host has serviced the
// fault and the walk proceeds (a fault never loses a translation — the
// conservation invariants hold under every plan).
type RetryPolicy struct {
	MaxRetries int
	Backoff    sim.Duration
	BackoffMax sim.Duration
}

// maxRetries bounds RetryPolicy.MaxRetries: the chipset counts a walk's
// faulted attempts in a uint8 (pipeline.chipsetWalk), so a larger bound
// could never be reached.
const maxRetries = 255

// DefaultRetryPolicy is used when a plan leaves the policy zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 500 * sim.Nanosecond, BackoffMax: 10 * sim.Microsecond}
}

// withDefaults fills zero fields from the default policy.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.MaxRetries <= 0 {
		rp.MaxRetries = def.MaxRetries
	}
	if rp.Backoff <= 0 {
		rp.Backoff = def.Backoff
	}
	if rp.BackoffMax <= 0 {
		rp.BackoffMax = def.BackoffMax
	}
	return rp
}

// Plan is a reproducible fault script: events in firing order plus the
// walker retry policy. Same plan + same trace seed ⇒ byte-identical run.
type Plan struct {
	// Seed records the generator seed the plan was derived from
	// (informational; the events are already materialized).
	Seed int64
	// Retry is the walker-fault retry policy; zero fields default.
	Retry RetryPolicy
	// Events fire in order; same-instant events apply in slice order.
	Events []Event
}

// pageShiftValid reports whether s is a supported page-size class.
func pageShiftValid(s uint8) bool {
	return s == uint8(mem.PageShift) || s == uint8(mem.HugePageShift) || s == uint8(mem.GiantPageShift)
}

// Validate reports script errors: unknown kinds, negative or unsorted
// times, missing targets, bad page-size classes.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		if ev.Kind >= kindCount {
			return fmt.Errorf("fault: event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s): negative time %d", i, ev.Kind, ev.At)
		}
		if i > 0 && ev.At < p.Events[i-1].At {
			return fmt.Errorf("fault: event %d (%s) at %v fires before event %d at %v",
				i, ev.Kind, ev.At, i-1, p.Events[i-1].At)
		}
		switch ev.Kind {
		case InvalidatePage, Remap:
			if ev.SID == 0 {
				return fmt.Errorf("fault: event %d (%s): SID required", i, ev.Kind)
			}
			if !pageShiftValid(ev.Shift) {
				return fmt.Errorf("fault: event %d (%s): bad page shift %d", i, ev.Kind, ev.Shift)
			}
		case InvalidateTenant, Detach, Attach:
			if ev.SID == 0 {
				return fmt.Errorf("fault: event %d (%s): SID required", i, ev.Kind)
			}
		case WalkerFault:
			if ev.N < 0 || ev.Dur < 0 {
				return fmt.Errorf("fault: event %d (walker_fault): negative N or Dur", i)
			}
		}
	}
	if rp := p.Retry; rp.MaxRetries < 0 || rp.Backoff < 0 || rp.BackoffMax < 0 {
		return fmt.Errorf("fault: retry policy fields must be non-negative: %+v", rp)
	}
	if p.Retry.MaxRetries > maxRetries {
		return fmt.Errorf("fault: retry max_retries %d exceeds %d", p.Retry.MaxRetries, maxRetries)
	}
	return nil
}

// sortEvents orders events by time, keeping the original order of
// same-instant events (generators interleave streams).
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}
