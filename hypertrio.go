// Package hypertrio is a Go reproduction of "HyperTRIO: Hyper-Tenant
// Translation of I/O Addresses" (Lavrov & Wentzlaff, ISCA 2020) together
// with HyperSIO, the hyper-tenant I/O simulator the paper built to
// evaluate it.
//
// The package exposes the full experiment pipeline:
//
//  1. Pick a workload (Iperf3, Mediastream, Websearch — calibrated to the
//     paper's §IV-D characterization) and construct a hyper-tenant trace
//     with ConstructTrace, choosing tenant count and inter-tenant
//     interleaving (RR1, RR4, RAND1).
//  2. Pick a hardware configuration: BaseConfig (conventional design) or
//     HyperTRIOConfig (partitioned DevTLB, 32-entry Pending Translation
//     Buffer, translation prefetching — Table IV), or build a custom one.
//  3. Run the trace-driven performance model with Run and inspect the
//     achieved bandwidth, drop rates and per-structure statistics in the
//     Result.
//
// ExampleRun, Example_kvstore and Example_prefetchTuning (example_test.go)
// are runnable examples whose output go test checks.
package hypertrio

import (
	"hypertrio/internal/core"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Benchmark identifies one of the paper's evaluated workloads.
type Benchmark = workload.Kind

// The three I/O-intensive benchmarks of §V-A.
const (
	Iperf3      = workload.Iperf3
	Mediastream = workload.Mediastream
	Websearch   = workload.Websearch
)

// Benchmarks lists all workloads in presentation order.
var Benchmarks = workload.Kinds

// ParseBenchmark converts a name ("iperf3", "mediastream", "websearch").
func ParseBenchmark(s string) (Benchmark, error) { return workload.ParseKind(s) }

// Profile is a per-tenant workload calibration. The built-in benchmarks
// ship calibrated profiles (ProfileFor); pass a custom Profile through
// TraceConfig.Profile to model other workloads (e.g. a key-value store
// with small values — the paper's introductory motivation).
type Profile = workload.Profile

// ProfileFor returns the calibrated profile for a built-in benchmark.
func ProfileFor(b Benchmark) Profile { return workload.ProfileFor(b) }

// Interleave is an inter-tenant arbitration scheme with burst length.
type Interleave = trace.Interleave

// The paper's three interleavings (§IV-B).
var (
	RR1   = trace.RR1
	RR4   = trace.RR4
	RAND1 = trace.RAND1
)

// ParseInterleave converts "RR1", "RR4", "RAND1", ...
func ParseInterleave(s string) (Interleave, error) { return trace.ParseInterleave(s) }

// TraceConfig drives hyper-tenant trace construction (HyperSIO's Trace
// Constructor, §IV-B).
type TraceConfig = trace.Config

// Trace is a constructed hyper-tenant translation trace.
type Trace = trace.Trace

// ConstructTrace builds a hyper-tenant trace: per-tenant synthetic
// workload streams (calibrated to Table III request budgets at
// Scale == 1.0) interleaved by the chosen scheme, truncated when the
// first tenant's log is exhausted.
func ConstructTrace(cfg TraceConfig) (*Trace, error) { return trace.Construct(cfg) }

// Source is a pull-based packet stream: either a materialized Trace
// adapter (Trace.Source) or an online generator-backed stream
// (NewStream). The simulation consumes packets one at a time through it.
type Source = trace.Source

// Stream is the online hyper-tenant source: the same packet sequence
// ConstructTrace would materialize, synthesized on the fly in O(tenants)
// memory — the scale-out path to millions of tenants.
type Stream = trace.Stream

// NewStream builds the online source for cfg.
func NewStream(cfg TraceConfig) (*Stream, error) { return trace.NewStream(cfg) }

// RNG selects the per-tenant random-source implementation
// (TraceConfig.RNG): StdRNG reproduces every golden sequence, CompactRNG
// shrinks per-generator state ~60x for million-tenant streaming.
type RNG = workload.RNG

// The available random-source implementations.
const (
	StdRNG     = workload.StdRNG
	CompactRNG = workload.CompactRNG
)

// Params are the performance-model latencies and link parameters
// (Table II).
type Params = core.Params

// DefaultParams returns Table II verbatim: 450 ns one-way PCIe, 50 ns
// DRAM, 2 ns TLB hit, 1542 B packets, 200 Gb/s link.
func DefaultParams() Params { return core.DefaultParams() }

// Config is a full system configuration under test.
type Config = core.Config

// BaseConfig returns the paper's Base design (Table IV).
func BaseConfig() Config { return core.BaseConfig() }

// HyperTRIOConfig returns the paper's full HyperTRIO design (Table IV).
func HyperTRIOConfig() Config { return core.HyperTRIOConfig() }

// DescribePipeline renders the translation datapath a configuration
// resolves to — one line per composed stage — without building page
// tables or running anything (`hypersio -describe`).
func DescribePipeline(cfg Config) (string, error) { return core.DescribePipeline(cfg) }

// Result reports a simulation run's bandwidth and per-structure
// statistics.
type Result = core.Result

// System is one instantiated simulation. Most callers only need Run;
// NewSystem exposes the System for observability users that want the
// metrics registry alongside the Result.
type System = core.System

// NewSystem builds a simulation of cfg over tr without running it.
func NewSystem(cfg Config, tr *Trace) (*System, error) { return core.NewSystem(cfg, tr) }

// NewSystemSource builds a simulation over any packet Source. Online
// sources keep the run's memory O(tenants). A configuration that needs
// the whole sequence ahead of time (the Oracle replacement policy) reads
// the source's keys once and rewinds it before the run.
func NewSystemSource(cfg Config, src Source) (*System, error) {
	return core.NewSystemSource(cfg, src)
}

// Run replays the trace against the configuration and returns the
// metrics. Each call builds fresh per-tenant page tables, so runs are
// independent and deterministic.
func Run(cfg Config, tr *Trace) (Result, error) {
	sys, err := core.NewSystem(cfg, tr)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}

// RunSource replays any packet source — streaming sources never
// materialize the sequence, so trace-length memory drops out of the run
// entirely. The result is byte-identical to Run over the constructed
// trace of the same TraceConfig.
func RunSource(cfg Config, src Source) (Result, error) {
	sys, err := core.NewSystemSource(cfg, src)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}
