// Package experiments regenerates every table and figure of the paper's
// evaluation: each Figure*/Table* function sweeps the parameters the
// paper sweeps and returns the same rows or series the paper reports.
// The registry in All drives cmd/experiments and the benchmark harness.
//
// Scale: absolute bandwidths depend on the testbed, so experiments run at
// a reduced (but shape-preserving) trace scale by default; EXPERIMENTS.md
// records the measured values next to the paper's.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"hypertrio/internal/core"
	"hypertrio/internal/obs"
	"hypertrio/internal/runner"
	"hypertrio/internal/sim"
	"hypertrio/internal/stats"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Options tunes how heavy a regeneration run is.
type Options struct {
	// Seed drives trace construction; experiments are deterministic for
	// a given (Seed, Quick).
	Seed int64
	// Quick shrinks tenant counts and trace lengths for CI/benchmarks.
	Quick bool
	// Workers is how many goroutines a sweep's simulation cells fan out
	// across (<= 0 means GOMAXPROCS). Tables are byte-identical for any
	// worker count; Workers == 1 reproduces the historical serial
	// execution exactly.
	Workers int
	// SampleEvery, when positive, attaches the time-series sampler to
	// every simulation cell at this interval of simulated time. Sampling
	// only reads model state, so the rendered tables are unchanged.
	SampleEvery sim.Duration
	// SeriesDir, when set together with SampleEvery, receives one CSV
	// per cell (cell-000.csv, ... in submission order) for each sweep.
	SeriesDir string
}

// DefaultOptions is the paper-scale configuration: seed 42, every other
// option at its zero value.
func DefaultOptions() Options { return Options{Seed: 42} }

// Experiment ties a paper artifact to its regeneration function.
type Experiment struct {
	ID    string // e.g. "fig10"
	Title string
	Run   func(Options) (*stats.Table, error)
}

// All lists every experiment in presentation order.
var All = []Experiment{
	{"table2", "Table II: performance-model parameters", Table2},
	{"table3", "Table III: translation requests per benchmark", Table3},
	{"fig4", "Fig. 4: IOMMU TLB miss rate vs parallel connections (AMD case study)", Figure4},
	{"fig5", "Fig. 5: cumulative bandwidth, native vs VF (Intel case study)", Figure5},
	{"fig8a", "Fig. 8a: single-tenant page access frequencies", Figure8a},
	{"fig8b", "Fig. 8b: single-tenant data-page access pattern", Figure8b},
	{"fig9", "Fig. 9: modeled bandwidth vs connections per DevTLB configuration", Figure9},
	{"fig10", "Fig. 10: scalability of HyperTRIO vs Base", Figure10},
	{"fig11a", "Fig. 11a: Base with different DevTLB sizes", Figure11a},
	{"fig11b", "Fig. 11b: DevTLB replacement policies", Figure11b},
	{"fig11c", "Fig. 11c: fully associative DevTLB with oracle replacement", Figure11c},
	{"fig12a", "Fig. 12a: DevTLB and L2/L3 TLB partitioning alone", Figure12a},
	{"fig12b", "Fig. 12b: Pending Translation Buffer size", Figure12b},
	{"fig12c", "Fig. 12c: translation prefetching contribution", Figure12c},
	{"ext-partitions", "Extension: DevTLB partition-count sweep (open question in §V-D)", ExtPartitions},
	{"ext-walkers", "Extension: IOMMU walker-concurrency sweep", ExtWalkers},
	{"ext-5level", "Extension: 4- vs 5-level page tables (24- vs 35-access walks)", ExtFiveLevel},
	{"ext-isolation", "Extension: per-tenant latency fairness (isolation)", ExtIsolation},
	{"ext-faults", "Extension: scripted invalidation-rate sweep (fault injection)", ExtFaults},
	{"ext-churn", "Extension: tenant-churn sweep (fault injection)", ExtChurn},
	{"ext-megatenant", "Extension: million-tenant scale-out with streaming sources", ExtMegaTenant},
	{"ext-noisy-neighbor", "Extension: noisy-neighbor scenario (heavy-hitter isolation)", ExtNoisyNeighbor},
	{"ext-sid-flood", "Extension: SID-flood scenario (IOTLB thrashing)", ExtSIDFlood},
	{"ext-incast", "Extension: incast scenario (synchronized microbursts)", ExtIncast},
	{"ext-diurnal", "Extension: diurnal scenario (day/night load curve)", ExtDiurnal},
	{"ext-storm", "Extension: invalidation storm at peak load", ExtStorm},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// tenantSweep returns the tenant counts an experiment sweeps.
func tenantSweep(o Options) []int {
	if o.Quick {
		return []int{4, 32, 128}
	}
	return []int{4, 16, 64, 256, 1024}
}

// packetsPerTenant balances statistical quality against runtime: small
// tenant counts need long runs so warmup does not dominate, large counts
// are already miss-dominated.
func packetsPerTenant(tenants int, o Options) int {
	budget := 24000
	floor, ceil := 300, 4000
	if o.Quick {
		budget, floor, ceil = 4000, 120, 1200
	}
	ppt := budget / tenants
	if ppt < floor {
		ppt = floor
	}
	if ppt > ceil {
		ppt = ceil
	}
	return ppt
}

// scaleFor converts a packets-per-tenant target into the trace scale
// knob (budgets are in requests; the minimum-budget tenant bounds the
// trace length).
func scaleFor(kind workload.Kind, ppt int) float64 {
	p := workload.ProfileFor(kind)
	s := float64(ppt*workload.RequestsPerPacket) / float64(p.MinRequests)
	if s > 1 {
		s = 1
	}
	return s
}

// traceConfig describes the canonical trace for one sweep point; the
// shared runner cache constructs each distinct config at most once per
// process, so experiments that sweep overlapping points share traces.
func traceConfig(kind workload.Kind, tenants int, iv trace.Interleave, o Options) trace.Config {
	return trace.Config{
		Benchmark:  kind,
		Tenants:    tenants,
		Interleave: iv,
		Seed:       o.Seed,
		Scale:      scaleFor(kind, packetsPerTenant(tenants, o)),
	}
}

// sweep is the declarative cell-submission API the experiment functions
// are written against: queue every (config, trace) cell of a sweep up
// front, run them through the worker pool, then assemble table rows from
// the ordered results. Submission order equals result order, so the
// rendered tables are byte-identical for any worker count.
type sweep struct {
	o     Options
	cells []runner.Cell
}

func newSweep(o Options) *sweep { return &sweep{o: o} }

// sim queues one simulation of cfg over the canonical trace for
// (kind, tenants, iv).
func (s *sweep) sim(cfg core.Config, kind workload.Kind, tenants int, iv trace.Interleave) {
	s.simTrace(cfg, traceConfig(kind, tenants, iv, s.o))
}

// simTrace queues one simulation of cfg over an explicit trace config
// (used by the profile-override studies). Cells sweeping one config
// share its cached trace.
func (s *sweep) simTrace(cfg core.Config, tc trace.Config) {
	s.cells = append(s.cells, runner.Cell{Config: cfg, Open: runner.Shared().Open(tc)})
}

// run executes the queued cells and returns a cursor over the results in
// submission order. With sampling enabled it attaches the shared
// observability options to every cell (safe: cells only read them) and
// writes the per-cell time series under SeriesDir.
func (s *sweep) run() (*results, error) {
	cells := s.cells
	if s.o.SampleEvery > 0 {
		cells = make([]runner.Cell, len(s.cells))
		copy(cells, s.cells)
		shared := &obs.Options{SampleEvery: s.o.SampleEvery}
		for i := range cells {
			cells[i].Config.Obs = shared
		}
	}
	rs, err := runner.Pool{Workers: s.o.Workers}.Run(cells)
	if err != nil {
		return nil, err
	}
	if s.o.SampleEvery > 0 && s.o.SeriesDir != "" {
		if err := writeSeries(s.o.SeriesDir, rs); err != nil {
			return nil, err
		}
	}
	return &results{rs: rs}, nil
}

// writeSeries dumps each cell's sampled series as CSV, numbered in
// submission order so a results directory diffs clean across runs.
func writeSeries(dir string, rs []core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, r := range rs {
		var buf bytes.Buffer
		if err := r.Series.WriteCSV(&buf); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("cell-%03d.csv", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// results replays a sweep's outcomes in submission order: the assembly
// pass calls next exactly once per queued cell, mirroring its loops.
type results struct {
	rs []core.Result
	i  int
}

func (r *results) next() core.Result {
	res := r.rs[r.i]
	r.i++
	return res
}

// gbps formats a bandwidth cell.
func gbps(r core.Result) string { return stats.Gbps(r.AchievedGbps * 1e9) }

// util formats a utilization cell.
func util(r core.Result) string { return stats.Percent(r.Utilization) }

func itoa(n int) string { return fmt.Sprintf("%d", n) }
