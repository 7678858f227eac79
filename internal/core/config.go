// Package core is the HyperSIO trace-driven device–system performance
// model: it wires the on-device structures (DevTLB, PTB, Prefetch Unit)
// to the chipset (context cache, page-walk caches, two-dimensional
// walker) over a PCIe latency model, replays a hyper-tenant trace against
// real per-tenant page tables, and reports achieved I/O bandwidth.
package core

import (
	"fmt"
	"math"

	"hypertrio/internal/device"
	"hypertrio/internal/fault"
	"hypertrio/internal/iommu"
	"hypertrio/internal/obs"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
)

// Params are the physical model parameters (paper Table II).
type Params struct {
	PCIeOneWay  sim.Duration // one-way PCIe traversal
	DRAMLatency sim.Duration // one physical memory access
	TLBHit      sim.Duration // DevTLB / Prefetch Buffer / chipset IOTLB hit
	PacketBytes int          // Ethernet packet + inter-packet gap
	LinkGbps    float64      // nominal link rate
	// ArrivalGbps caps the offered load; 0 means the link is fully
	// utilized on the input side (the paper's default). Motivational
	// studies on slower hosts set this below LinkGbps.
	ArrivalGbps float64
}

// DefaultParams returns Table II verbatim.
func DefaultParams() Params {
	return Params{
		PCIeOneWay:  450 * sim.Nanosecond,
		DRAMLatency: 50 * sim.Nanosecond,
		TLBHit:      2 * sim.Nanosecond,
		PacketBytes: 1542,
		LinkGbps:    200,
	}
}

// Interarrival returns the packet inter-arrival gap implied by the
// offered load.
func (p Params) Interarrival() sim.Duration { return sim.FromNanos(p.gapNs()) }

// gapNs is the inter-arrival gap in float nanoseconds.
func (p Params) gapNs() float64 { return float64(p.PacketBytes) * 8 / p.offeredGbps() }

// maxGapNs caps the inter-arrival gap at one second. A slower packet
// rate is a link under 13 kb/s, which no I/O device the model describes
// runs at, and the cap keeps the gap far inside sim.Duration's range: at
// one second the picosecond clock still spans 9*10^6 packets (106 days).
// The bound is checked before the float-to-int conversion, whose result
// Go leaves implementation-defined when it overflows.
const maxGapNs = 1e9

// offeredGbps is the offered load: ArrivalGbps, or the link rate when
// it is unset.
func (p Params) offeredGbps() float64 {
	if p.ArrivalGbps == 0 {
		return p.LinkGbps
	}
	return p.ArrivalGbps
}

func (p Params) validate() error {
	switch {
	case p.PCIeOneWay < 0 || p.DRAMLatency <= 0 || p.TLBHit <= 0:
		return fmt.Errorf("core: latencies must be positive: %+v", p)
	case p.PacketBytes <= 0:
		return fmt.Errorf("core: packet size must be positive")
	// Written so that NaN fails each test.
	case !(p.LinkGbps > 0 && p.LinkGbps <= math.MaxFloat64):
		return fmt.Errorf("core: link rate must be finite and positive, got %g Gb/s", p.LinkGbps)
	case !(p.ArrivalGbps >= 0 && p.ArrivalGbps <= p.LinkGbps):
		return fmt.Errorf("core: arrival rate must be in [0, link rate %g] Gb/s (0 means the link rate), got %g", p.LinkGbps, p.ArrivalGbps)
	case p.gapNs() > maxGapNs:
		rate := "link rate"
		if p.ArrivalGbps != 0 {
			rate = "arrival rate"
		}
		return fmt.Errorf("core: at a %s of %g Gb/s a %d B packet arrives every %.3g s; the inter-arrival gap must be at most 1 s",
			rate, p.offeredGbps(), p.PacketBytes, p.gapNs()/1e9)
	case p.Interarrival() < 1:
		// A zero gap would offer every link slot at the same picosecond:
		// a dropped packet would retry at one instant forever.
		return fmt.Errorf("core: a %d B packet at %g Gb/s arrives every %d ps; the inter-arrival gap must be at least 1 ps",
			p.PacketBytes, p.offeredGbps(), p.Interarrival())
	}
	return nil
}

// ArrivalShaper modulates the packet inter-arrival gap over simulated
// time — the hook scenario load envelopes (diurnal curves, incast
// microbursts, ramps) use to make offered load time-varying without
// touching the generators. Implementations must be deterministic pure
// functions of their inputs: the same (base, now) pair always yields
// the same gap, which is what keeps shaped runs byte-identical across
// materialized and streaming execution.
type ArrivalShaper interface {
	// Gap returns the gap between the current link slot and the next,
	// given the nominal (full-load) gap and the current simulated time.
	// Returning base models full offered load; larger gaps thin it.
	Gap(base sim.Duration, now sim.Time) sim.Duration
}

// Config is one full system configuration under test.
type Config struct {
	Params Params

	// Shaper, when non-nil, modulates the packet inter-arrival gap over
	// simulated time (load envelopes). Nil offers the constant
	// Params-implied load — byte-identical to a build without the hook.
	Shaper ArrivalShaper

	// DevTLB configures the on-device translation cache; Sets == 0
	// disables the DevTLB entirely (every request goes to the chipset).
	DevTLB tlb.Config
	// PTBEntries is the number of Pending Translation Buffer entries;
	// each holds one packet's in-flight translation context (its three
	// translations proceed concurrently; completion is out of order
	// across packets). A packet that cannot allocate an entry at arrival
	// is dropped and retried.
	PTBEntries int
	// Prefetch enables the Prefetch Unit when non-nil.
	Prefetch *device.PrefetchConfig
	// IOMMU configures the chipset.
	IOMMU iommu.Config

	// TranslationOff models a native (non-virtualized) interface: every
	// packet completes in TLBHit with no translation work — the Fig. 5
	// "host" baseline.
	TranslationOff bool

	// SerialRequests makes a packet's missing translations execute one
	// after another instead of concurrently — the head-of-line-blocking
	// behaviour of legacy devices that the PTB's out-of-order completion
	// removes. Used by the Fig. 5 motivational study.
	SerialRequests bool

	// PageTableLevels selects 4- or 5-level page tables in both walk
	// dimensions (0 means 4). A 4 KB two-dimensional walk costs 24
	// memory accesses at depth 4 and 35 at depth 5 (§II-A).
	PageTableLevels int

	// IOMMUWalkers caps how many page-table walks the chipset performs
	// concurrently; excess translations queue. Zero means unlimited (the
	// paper's latency-only model). The walker ablation uses this to
	// study structural contention at the IOMMU — a design dimension the
	// paper's GPU-related work discusses (§VI) but its model leaves open.
	IOMMUWalkers int

	// Obs attaches the observability layer (internal/obs): model-level
	// event tracing, optional engine-kernel probing, and periodic
	// time-series sampling. Nil turns everything off; observability only
	// reads model state, so simulation outcomes are byte-identical with
	// it on or off.
	Obs *obs.Options

	// Fault loads a fault-injection script (internal/fault): scripted
	// invalidations, mid-flight remaps, walker faults and tenant churn
	// applied at their scripted instants. Nil (the default) builds no
	// injector and installs no hooks — a fault-free run is byte-identical
	// to a build without the subsystem. The plan is read-only once the
	// run starts, so one plan value may be shared across systems.
	Fault *fault.Plan
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Params.validate(); err != nil {
		return err
	}
	if c.TranslationOff {
		return nil
	}
	if c.PTBEntries <= 0 {
		return fmt.Errorf("core: PTBEntries must be positive, got %d", c.PTBEntries)
	}
	if l := c.PageTableLevels; l != 0 && l != 4 && l != 5 {
		return fmt.Errorf("core: PageTableLevels must be 0, 4 or 5, got %d", l)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	// Cache geometry is checked here, before any page table is built, so
	// a bad size is an error rather than a panic inside the cache.
	caches := []tlb.Config{c.IOMMU.ContextCache, c.IOMMU.L2PWC, c.IOMMU.L3PWC}
	if c.DevTLB.Sets > 0 {
		caches = append(caches, c.DevTLB)
	}
	if c.IOMMU.IOTLB.Sets > 0 {
		caches = append(caches, c.IOMMU.IOTLB)
	}
	for _, cc := range caches {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Prefetch != nil {
		if err := c.Prefetch.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	// Only the DevTLB is handed the future access sequence an Oracle
	// cache replaces by; a chipset cache would panic at its first
	// eviction.
	for _, cc := range []struct {
		name string
		cfg  tlb.Config
	}{
		{"context cache", c.IOMMU.ContextCache}, {"IOTLB", c.IOMMU.IOTLB},
		{"L2 PWC", c.IOMMU.L2PWC}, {"L3 PWC", c.IOMMU.L3PWC},
	} {
		if cc.cfg.Policy == tlb.Oracle {
			return fmt.Errorf("core: the %s cannot run the Oracle policy: only the DevTLB sees the future", cc.name)
		}
	}
	return nil
}

// datapath resolves the configuration into the chain it composes:
// admission, the device-side probe levels, then the chipset and its
// history reader. TranslationOff resolves to the zero pipeline.Config
// (the native path). Every design variant — baseline, partitioned,
// prefetching — is a different geometry of the same chain.
func (c Config) datapath() pipeline.Config {
	if c.TranslationOff {
		return pipeline.Config{}
	}
	return pipeline.Config{
		PTBEntries: c.PTBEntries,
		DevTLB:     c.DevTLB,
		Prefetch:   c.Prefetch,
		IOMMU:      c.IOMMU,
		Walkers:    c.IOMMUWalkers,
	}
}

// DescribePipeline renders the datapath the configuration resolves to,
// without building page tables or running anything (hypersio -describe).
func DescribePipeline(cfg Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	// Describe-only build: no tenants, no oracle future. Stages only
	// touch the memory system when translations run, so a chain built
	// against an empty context table still renders.
	chain := pipeline.New(pipeline.Env{
		Lat: pipeline.Latencies{
			PCIeOneWay:   cfg.Params.PCIeOneWay,
			DRAMLatency:  cfg.Params.DRAMLatency,
			TLBHit:       cfg.Params.TLBHit,
			Interarrival: cfg.Params.Interarrival(),
		},
	}, cfg.datapath())
	return chain.Describe(), nil
}

// BaseConfig is the paper's Base design (Table IV): a conventional
// 64-entry 8-way LFU DevTLB indexed by address (one partition), a single
// PTB entry (no overlap across packets), unpartitioned page-walk caches,
// and no prefetching.
func BaseConfig() Config {
	return Config{
		Params: DefaultParams(),
		DevTLB: tlb.Config{
			Name: "devtlb", Sets: 8, Ways: 8, Policy: tlb.LFU, Index: tlb.ByAddress,
		},
		PTBEntries: 1,
		IOMMU: iommu.Config{
			ContextCache: iommu.DefaultContextCache(),
			L2PWC:        tlb.Config{Name: "l2pwc", Sets: 32, Ways: 16, Policy: tlb.LFU, Index: tlb.ByAddress},
			L3PWC:        tlb.Config{Name: "l3pwc", Sets: 64, Ways: 16, Policy: tlb.LFU, Index: tlb.ByAddress},
		},
	}
}

// HyperTRIOConfig is the paper's full design (Table IV): the same cache
// geometries with SID partitioning (8 DevTLB partitions, 32/64 page-walk
// cache partitions), a 32-entry PTB, and the prefetching scheme
// (8-entry buffer, 48-access stride, 2 pages of history per tenant).
func HyperTRIOConfig() Config {
	pf := device.DefaultPrefetchConfig()
	return Config{
		Params: DefaultParams(),
		DevTLB: tlb.Config{
			Name: "devtlb", Sets: 8, Ways: 8, Policy: tlb.LFU, Index: tlb.BySID,
		},
		PTBEntries: 32,
		Prefetch:   &pf,
		IOMMU: iommu.Config{
			ContextCache: iommu.DefaultContextCache(),
			L2PWC:        tlb.Config{Name: "l2pwc", Sets: 32, Ways: 16, Policy: tlb.LFU, Index: tlb.BySID},
			L3PWC:        tlb.Config{Name: "l3pwc", Sets: 64, Ways: 16, Policy: tlb.LFU, Index: tlb.BySID},
		},
	}
}
