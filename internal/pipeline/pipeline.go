// Package pipeline is the translation datapath, one level per stage of
// the paper's staged architecture: PTB admission, the on-device DevTLB
// and Prefetch Buffer, then the chipset's context cache, optional IOTLB,
// partitioned L2/L3 page-walk caches and bounded walker pool, with the
// IOVA history reader issuing prefetches.
//
// The datapath is one fixed Chain with a concrete field per stage. Which
// optional stages exist and with what geometry and policies is a Config —
// the Base design, the full HyperTRIO design and their ablations are
// different Configs of the same chain, not branches inside the
// performance model. internal/core drives the Chain from the event
// kernel; stages charge latency by scheduling against the sim.Engine.
package pipeline

import (
	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
)

// Request is one translation demand flowing down the datapath.
type Request struct {
	SID   mem.SID
	IOVA  uint64
	Shift uint8 // native page-size class of the mapping
}

// Key returns the request's cache key at its native granule.
func (r Request) Key() tlb.Key { return iommu.PageKey(r.SID, r.IOVA, r.Shift) }

// Stage is one composed level of the datapath as Describe, Register and
// Stages see it. The packet path calls the stages' concrete methods.
type Stage interface {
	// Name identifies the stage: its metrics prefix in the registry and
	// its label in Describe output.
	Name() string
	// Register publishes the stage's counts and gauges under prefix.
	Register(r *obs.Registry, prefix string)
	// Describe returns a one-line human summary of the stage's
	// configuration (geometry, policies).
	Describe() string
}

// Completer receives resolved demand misses. It is the closure-free
// completion callback: the caller implements Complete once, passes
// itself to Chain.Resolve with an opaque context word (typically an
// index into its own pooled per-packet records), and gets both back at
// the completion time. The chipset threads ctx through untouched.
type Completer interface {
	Complete(e *sim.Engine, at sim.Time, ctx uint64)
}

// FaultHook is the chain's view of a fault injector (internal/fault).
// Every call site is nil-guarded, so a chain built without a hook pays
// nothing — the zero-cost-off guarantee the golden suite pins.
type FaultHook interface {
	// WalkAttempt is consulted before each page-table walk attempt
	// (attempt 0 is the first). When faulted is true the walker must back
	// off retryIn and re-attempt; the stage counts and traces the retry.
	WalkAttempt(now sim.Time, sid mem.SID, attempt int) (retryIn sim.Duration, faulted bool)
	// OnWalk observes a walk that is actually executing (after any
	// retries), letting the injector detect forced re-walks of pages it
	// remapped.
	OnWalk(now sim.Time, sid mem.SID, iova uint64, shift uint8)
	// OnProbeHit observes a device-side probe hit, letting the injector
	// detect hits inside a stale-translation window (a remap whose
	// invalidation has not been issued yet).
	OnProbeHit(now sim.Time, sid mem.SID, iova uint64, shift uint8)
}

// Latencies are the physical model parameters the datapath charges
// (paper Table II), plus the link slot gap the history reader uses to
// express observed prefetch latency in requests.
type Latencies struct {
	PCIeOneWay   sim.Duration
	DRAMLatency  sim.Duration
	TLBHit       sim.Duration
	Interarrival sim.Duration
}

// Env is the world a chain is built into: physical latencies, the
// observability tracer, and the memory system the chipset walks.
type Env struct {
	Lat    Latencies
	Tracer *obs.Tracer
	// Tenants holds the per-tenant nested page tables the chipset
	// translates against.
	Tenants *mem.TenantTables
	// OracleKeys is the future access sequence for a Belady-policy
	// DevTLB; consulted only when the DevTLB runs the Oracle policy. Nil
	// leaves the future unset (Describe-only builds).
	OracleKeys []tlb.Key
	// Faults is the fault injector's hook (nil in every fault-free run;
	// every consultation in the chain is nil-guarded).
	Faults FaultHook
}

// Config is the datapath's geometry: which optional stages the chain
// composes and how each is sized. The zero Config composes no stages —
// the native (translation-off) path.
type Config struct {
	// PTBEntries sizes the Pending Translation Buffer; 0 composes no
	// admission stage (every packet is admitted).
	PTBEntries int
	// DevTLB is the on-device translation cache; Sets == 0 composes none.
	DevTLB tlb.Config
	// Prefetch, when non-nil, composes the Prefetch Buffer and the
	// chipset's IOVA history reader that fills it.
	Prefetch *device.PrefetchConfig
	// IOMMU configures the chipset.
	IOMMU iommu.Config
	// Walkers bounds the chipset's walk concurrency (0 = unlimited).
	Walkers int
}
