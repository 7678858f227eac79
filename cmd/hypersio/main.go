// Command hypersio runs one HyperSIO simulation: it constructs a
// hyper-tenant trace for a chosen benchmark, tenant count and
// interleaving, replays it against a Base, HyperTRIO or custom
// configuration, and prints the bandwidth report.
//
// Usage examples:
//
//	hypersio -benchmark websearch -tenants 1024 -interleave RR1 -design hypertrio
//	hypersio -benchmark iperf3 -tenants 64 -design base -devtlb-entries 1024
//	hypersio -benchmark mediastream -tenants 128 -design hypertrio -ptb 8 -no-prefetch
//	hypersio -benchmark iperf3 -tenants 64 -trace run.ndjson -metrics run.json
//	hypersio -benchmark iperf3 -tenants 32 -faults plan.json
//	hypersio -scenario scenarios/noisy-neighbor.json -design hypertrio
//	hypersio -scenario storm
//	hypersio -design hypertrio -describe
//
// Fault injection: -faults FILE loads a JSON fault plan
// (hypertrio-faultplan/1; see EXPERIMENTS.md) scripting IOTLB
// invalidations, mid-flight remaps, walker faults and tenant churn
// against the run, and prints the injector's accounting afterwards.
//
// Scenarios: -scenario NAME|FILE runs a production-traffic scenario
// (hypertrio-scenario/1; see EXPERIMENTS.md) — a committed library
// scenario by name, or any JSON scenario file. The scenario owns the
// tenant population, the load envelope and the fault script, so
// -benchmark/-tenants/-interleave/-scale/-seed/-compact-rng are
// ignored (though still validated) and -faults is rejected; every design
// knob composes as usual. The report gains a per-class breakdown.
//
// Sources: every run builds its trace from the flags or the scenario. It
// materializes the trace unless it would pass trace.MaxPackets packets;
// then it prints one line and replays an online stream of the identical
// packets instead, in O(tenants) memory.
//
// Observability: -trace FILE streams model events (arrivals, drops,
// DevTLB hits/misses, page walks, prefetches) as NDJSON; -trace-engine
// additionally records every event-kernel sched/fire event (a blocked
// link's dead slots are skipped in one step, traced or not);
// -metrics FILE writes the final metrics registry snapshot plus the
// time series sampled every -sample-us of simulated time (JSON, or CSV
// of the series alone when FILE ends in .csv). Neither changes
// simulation results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"hypertrio"
	"hypertrio/internal/fault"
	"hypertrio/internal/obs"
	"hypertrio/internal/profiling"
	"hypertrio/internal/scenario"
	"hypertrio/internal/sim"
	"hypertrio/internal/stats"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
)

// options carries every flag; keeping them in one struct keeps run
// testable without a 14-parameter signature.
type options struct {
	benchmark    string
	interleave   string
	design       string
	policy       string
	tenants      int
	seed         int64
	scale        float64
	compactRNG   bool
	linkGbps     float64
	ptb          int
	devtlbSize   int
	chipsetIOTLB int
	noPrefetch   bool
	serial       bool
	describe     bool
	verbose      bool

	traceFile    string // NDJSON event trace output
	engineEvents bool
	metricsFile  string // metrics snapshot + time series output
	sampleUs     int
	faultsFile   string // JSON fault plan input
	scenarioFile string // scenario name or JSON file input

	cpuProfile string // pprof CPU profile output
	memProfile string // pprof heap profile output
}

// parseFlags binds every flag to a fresh options value. Errors (and
// usage) go to stderr; a non-nil error means flag misuse, which exits
// with the conventional code 2 rather than a runtime failure's 1.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("hypersio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.benchmark, "benchmark", "iperf3", "workload: iperf3, mediastream, websearch")
	fs.IntVar(&o.tenants, "tenants", 64, "number of concurrent tenants (at most 1000000; past 131072 needs -compact-rng)")
	fs.StringVar(&o.interleave, "interleave", "RR1", "inter-tenant interleaving: RR1, RR4, RAND1, RR<k>, RAND<k>")
	fs.StringVar(&o.design, "design", "hypertrio", "hardware design: base or hypertrio")
	fs.Int64Var(&o.seed, "seed", 42, "trace construction seed")
	fs.Float64Var(&o.scale, "scale", 0.01, "trace scale in (0,1]; 1.0 is paper scale (~70M requests at 1024 tenants)")
	fs.BoolVar(&o.compactRNG, "compact-rng", false, "use the compact splitmix64 tenant RNG (~60x less generator state; different deterministic sequences)")

	fs.Float64Var(&o.linkGbps, "link", 200, "I/O link bandwidth in Gb/s")
	fs.IntVar(&o.ptb, "ptb", 0, "override PTB entries (0 = design default)")
	fs.IntVar(&o.devtlbSize, "devtlb-entries", 0, "override DevTLB entries, 8-way (0 = design default)")
	fs.StringVar(&o.policy, "policy", "", "override DevTLB replacement policy: lru, lfu, oracle")
	fs.IntVar(&o.chipsetIOTLB, "chipset-iotlb", 0, "enable a shared (unpartitioned) chipset IOTLB with this many entries, 8-way LRU")
	fs.BoolVar(&o.noPrefetch, "no-prefetch", false, "disable the Prefetch Unit")
	fs.BoolVar(&o.serial, "serial", false, "serialize a packet's translations (legacy device)")
	fs.BoolVar(&o.describe, "describe", false, "print the resolved translation datapath and exit without simulating")
	fs.BoolVar(&o.verbose, "v", false, "print per-structure statistics")

	fs.StringVar(&o.traceFile, "trace", "", "write an NDJSON event trace of the run to FILE")
	fs.BoolVar(&o.engineEvents, "trace-engine", false, "with -trace: also record event-kernel sched/fire events")
	fs.StringVar(&o.metricsFile, "metrics", "", "write the metrics snapshot and time series to FILE (.json or .csv)")
	fs.IntVar(&o.sampleUs, "sample-us", 10, "time-series sample interval in simulated µs (0 disables the series)")
	fs.StringVar(&o.faultsFile, "faults", "", "load a JSON fault plan ("+fault.PlanSchema+") and apply it during the run")
	fs.StringVar(&o.scenarioFile, "scenario", "", "run a production-traffic scenario ("+scenario.Schema+"): a committed scenario name or a JSON file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-run, GC-settled) to FILE")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(stderr, "hypersio:", err)
		return o, err
	}
	return o, nil
}

// cliMain is main minus the process exit, so tests can drive the full
// argv-to-exit-code path: 0 success, 1 runtime failure, 2 flag misuse.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err == flag.ErrHelp {
		return 0 // -h prints usage and is not an error (matches flag.ExitOnError)
	}
	if err != nil {
		return 2
	}
	// Profiling brackets the whole run (trace construction included);
	// output paths are validated here, before any simulation work.
	prof, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "hypersio:", err)
		return 1
	}
	defer prof.Finish() // backstop; Finish is idempotent
	code := 0
	if err := run(o, stdout); err != nil {
		fmt.Fprintln(stderr, "hypersio:", err)
		code = 1
	}
	if err := prof.Finish(); err != nil {
		fmt.Fprintln(stderr, "hypersio:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// validate rejects bad inputs before any page table is built or any
// simulation event fires, so errors are fast and the exit is clean.
func (o options) validate() error {
	if _, err := hypertrio.ParseBenchmark(o.benchmark); err != nil {
		return err
	}
	if _, err := hypertrio.ParseInterleave(o.interleave); err != nil {
		return err
	}
	if o.tenants <= 0 {
		return fmt.Errorf("-tenants must be positive, got %d", o.tenants)
	}
	if o.tenants > 1_000_000 {
		return fmt.Errorf("-tenants must be at most 1000000, got %d", o.tenants)
	}
	if !(o.scale > 0 && o.scale <= 1) {
		return fmt.Errorf("-scale must be in (0,1], got %g", o.scale)
	}
	if o.design != "base" && o.design != "hypertrio" {
		return fmt.Errorf("unknown design %q (want base or hypertrio)", o.design)
	}
	if o.policy != "" {
		if _, err := tlb.ParsePolicy(o.policy); err != nil {
			return err
		}
	}
	if !(o.linkGbps > 0) {
		return fmt.Errorf("-link must be a positive link rate in Gb/s, got %g", o.linkGbps)
	}
	if o.ptb < 0 {
		return fmt.Errorf("-ptb must be >= 0, got %d", o.ptb)
	}
	if o.devtlbSize < 0 {
		return fmt.Errorf("-devtlb-entries must be >= 0, got %d", o.devtlbSize)
	}
	if o.chipsetIOTLB < 0 || o.chipsetIOTLB%8 != 0 {
		return fmt.Errorf("-chipset-iotlb must be a non-negative multiple of 8, got %d", o.chipsetIOTLB)
	}
	// A larger interval would wrap the picosecond Duration.
	if maxUs := math.MaxInt64 / int64(sim.Microsecond); o.sampleUs < 0 || int64(o.sampleUs) > maxUs {
		return fmt.Errorf("-sample-us must be in [0, %d], got %d", maxUs, o.sampleUs)
	}
	if o.engineEvents && o.traceFile == "" {
		return fmt.Errorf("-trace-engine requires -trace FILE")
	}
	if o.faultsFile != "" && o.describe {
		return fmt.Errorf("-faults has no effect with -describe (nothing is simulated)")
	}
	if o.scenarioFile != "" {
		if o.faultsFile != "" {
			return fmt.Errorf("-scenario and -faults are mutually exclusive (the scenario composes its own fault script)")
		}
		if o.describe {
			return fmt.Errorf("-scenario has no effect with -describe (nothing is simulated)")
		}
	}
	return nil
}

func run(o options, out io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}
	var cfg hypertrio.Config
	switch o.design {
	case "base":
		cfg = hypertrio.BaseConfig()
	case "hypertrio":
		cfg = hypertrio.HyperTRIOConfig()
	}
	cfg.Params.LinkGbps = o.linkGbps
	if o.ptb > 0 {
		cfg.PTBEntries = o.ptb
	}
	if o.devtlbSize > 0 {
		if o.devtlbSize%cfg.DevTLB.Ways != 0 {
			return fmt.Errorf("devtlb-entries %d not divisible by %d ways", o.devtlbSize, cfg.DevTLB.Ways)
		}
		cfg.DevTLB.Sets = o.devtlbSize / cfg.DevTLB.Ways
	}
	if o.policy != "" {
		p, err := tlb.ParsePolicy(o.policy)
		if err != nil {
			return err
		}
		cfg.DevTLB.Policy = p
	}
	if o.chipsetIOTLB > 0 {
		// Shared mode: one unpartitioned pool, hashed across tenants —
		// the pre-partitioning chipset design the paper argues against.
		cfg.IOMMU.IOTLB = tlb.Config{
			Name: "iotlb", Sets: o.chipsetIOTLB / 8, Ways: 8,
			Policy: tlb.LRU, Index: tlb.Hashed,
		}
	}
	if o.noPrefetch {
		cfg.Prefetch = nil
	}
	cfg.SerialRequests = o.serial

	if o.faultsFile != "" {
		f, err := os.Open(o.faultsFile)
		if err != nil {
			return err
		}
		plan, err := fault.ReadPlan(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", o.faultsFile, err)
		}
		cfg.Fault = plan
		fmt.Fprintf(out, "fault plan %s: %d scripted events\n", o.faultsFile, len(plan.Events))
	}

	var comp *scenario.Compiled
	if o.scenarioFile != "" {
		sc, err := loadScenario(o.scenarioFile)
		if err != nil {
			return err
		}
		comp, err = sc.Compile()
		if err != nil {
			return err
		}
		cfg = comp.Apply(cfg)
		fmt.Fprintf(out, "scenario %s: %d classes, %d tenants, %d phases, horizon %v",
			sc.Name, len(sc.Classes), sc.TotalTenants(), len(sc.Phases), comp.Horizon)
		if comp.Plan != nil {
			fmt.Fprintf(out, ", %d scripted fault events", len(comp.Plan.Events))
		}
		fmt.Fprintln(out)
	}

	if o.describe {
		desc, err := hypertrio.DescribePipeline(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(out, desc)
		return nil
	}

	src, err := openSource(o, comp, out)
	if err != nil {
		return err
	}

	// Observability wiring. The tracer flushes (and its file closes)
	// whether the run succeeds or fails.
	obsOpts := &obs.Options{EngineEvents: o.engineEvents}
	if o.metricsFile != "" && o.sampleUs > 0 {
		obsOpts.SampleEvery = sim.Duration(o.sampleUs) * sim.Microsecond
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		obsOpts.Tracer = obs.NewTracer(f)
		defer obsOpts.Tracer.Flush()
	}
	if o.traceFile != "" || obsOpts.SampleEvery > 0 {
		cfg.Obs = obsOpts
	}

	sys, err := hypertrio.NewSystemSource(cfg, src)
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%s design: %s\n", o.design, res)
	fmt.Fprintf(out, "  elapsed (simulated): %v\n", res.Elapsed)
	fmt.Fprintf(out, "  drops: %d (%.2f%% of arrival slots)\n", res.Drops, res.DropRate()*100)
	for _, c := range res.Classes {
		fmt.Fprintf(out, "  class %-12s %4d tenants  %7.2f Gb/s  drops %8d  avg lat %-12v Jain %.3f\n",
			c.Name, c.Tenants, c.Gbps, c.Drops, c.AvgLatency, c.Fairness)
	}
	if !cfg.TranslationOff {
		fmt.Fprintf(out, "  avg chipset translation latency: %v\n", res.AvgMissLatency)
		fmt.Fprintf(out, "  requests: %s total, %.1f%% DevTLB, %.1f%% prefetch buffer\n",
			stats.Count(res.Requests),
			pct(res.DevTLBServed, res.Requests), pct(res.PrefetchServed, res.Requests))
	}
	if st, ok := sys.FaultStats(); ok {
		fmt.Fprintf(out, "  faults: %d scripted events applied (%d page / %d tenant invalidations, %d flushes, %d remaps, %d detaches, %d attaches)\n",
			st.Applied, st.PageInvs, st.TenantInvs, st.Flushes, st.Remaps, st.Detaches, st.Attaches)
		fmt.Fprintf(out, "          %d cache entries dropped, %d walk retries, %d forced re-walks, %d stale-window hits\n",
			st.Dropped, st.FaultRetries, st.Rewalks, st.StaleHits)
	}
	if o.verbose {
		fmt.Fprintf(out, "\nstructures:\n")
		fmt.Fprintf(out, "  DevTLB:        %+v\n", res.DevTLB)
		fmt.Fprintf(out, "  PTB:           %+v\n", res.PTB)
		fmt.Fprintf(out, "  PrefetchUnit:  %+v\n", res.Prefetch)
		fmt.Fprintf(out, "  IOMMU:         translations=%d walks=%d memAccesses=%d\n",
			res.IOMMU.Translations, res.IOMMU.Walks, res.IOMMU.MemAccesses)
		fmt.Fprintf(out, "  ContextCache:  %+v\n", res.IOMMU.ContextCache)
		fmt.Fprintf(out, "  L2 PWC:        %+v\n", res.IOMMU.L2PWC)
		fmt.Fprintf(out, "  L3 PWC:        %+v\n", res.IOMMU.L3PWC)
	}

	if o.traceFile != "" {
		if err := obsOpts.Tracer.Flush(); err != nil {
			return fmt.Errorf("writing %s: %w", o.traceFile, err)
		}
		fmt.Fprintf(out, "\nwrote %s (%d events)\n", o.traceFile, obsOpts.Tracer.Events())
	}
	if o.metricsFile != "" {
		if err := writeMetrics(o.metricsFile, sys, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.metricsFile)
	}
	return nil
}

// openSource returns the run's packet source: the scenario's or the
// flags' trace, materialized unless it would pass trace.MaxPackets
// packets, in which case the identical packets stream online instead.
func openSource(o options, comp *scenario.Compiled, out io.Writer) (hypertrio.Source, error) {
	var tr *trace.Trace
	var err error
	var stream func() (hypertrio.Source, error)
	if comp != nil {
		fmt.Fprintf(out, "materializing scenario trace...\n")
		tr, err = comp.Materialize()
		stream = func() (hypertrio.Source, error) { return comp.Stream() }
	} else {
		kind, _ := hypertrio.ParseBenchmark(o.benchmark)
		iv, _ := hypertrio.ParseInterleave(o.interleave)
		tc := hypertrio.TraceConfig{
			Benchmark: kind, Tenants: o.tenants, Interleave: iv, Seed: o.seed, Scale: o.scale,
		}
		if o.compactRNG {
			tc.RNG = hypertrio.CompactRNG
		}
		fmt.Fprintf(out, "constructing %s trace: %d tenants, %v interleave, scale %g...\n",
			kind, o.tenants, iv, o.scale)
		tr, err = hypertrio.ConstructTrace(tc)
		stream = func() (hypertrio.Source, error) { return hypertrio.NewStream(tc) }
	}
	if errors.Is(err, trace.ErrTooLarge) {
		fmt.Fprintf(out, "%v; streaming it online instead (O(tenants) memory)\n", err)
		return stream()
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d packets, %d translation requests (min/max per-tenant budget %s/%s)\n",
		len(tr.Packets), tr.Requests(),
		stats.Count(uint64(tr.MinTenantBudget())), stats.Count(uint64(tr.MaxTenantBudget())))
	return tr.Source(), nil
}

// loadScenario resolves -scenario: an existing file decodes as JSON;
// otherwise the name is looked up in the committed library.
func loadScenario(nameOrPath string) (*scenario.Scenario, error) {
	f, err := os.Open(nameOrPath)
	if err == nil {
		defer f.Close()
		sc, rerr := scenario.ReadScenario(f)
		if rerr != nil {
			return nil, fmt.Errorf("reading %s: %w", nameOrPath, rerr)
		}
		return sc, nil
	}
	if sc, lerr := scenario.ByName(nameOrPath); lerr == nil {
		return sc, nil
	}
	return nil, fmt.Errorf("-scenario %q: not a readable file (%v) and not a committed scenario name", nameOrPath, err)
}

// writeMetrics exports the run's registry snapshot and time series:
// the full hypertrio-metrics/1 JSON document, or just the series as CSV
// when the filename asks for it.
func writeMetrics(path string, sys *hypertrio.System, res hypertrio.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		if err := res.Series.WriteCSV(f); err != nil {
			return err
		}
	} else {
		doc := obs.NewMetricsExport(res.Series, sys.Registry().Snapshot())
		if err := doc.WriteJSON(f); err != nil {
			return err
		}
	}
	return f.Close()
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}
