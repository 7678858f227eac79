// Benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating the artifact at reduced, shape-preserving scale) plus
// micro-benchmarks for the hot structures of the model.
//
// Regenerate everything at full scale with:  go run ./cmd/experiments
package hypertrio_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hypertrio"
	"hypertrio/internal/core"
	"hypertrio/internal/experiments"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/runner"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// benchExperiment reruns one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Seed: 42, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// One benchmark per paper artifact (DESIGN.md §4 maps IDs to the paper).

func BenchmarkTable2(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkFigure4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFigure8a(b *testing.B)      { benchExperiment(b, "fig8a") }
func BenchmarkFigure8b(b *testing.B)      { benchExperiment(b, "fig8b") }
func BenchmarkFigure9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFigure11a(b *testing.B)     { benchExperiment(b, "fig11a") }
func BenchmarkFigure11b(b *testing.B)     { benchExperiment(b, "fig11b") }
func BenchmarkFigure11c(b *testing.B)     { benchExperiment(b, "fig11c") }
func BenchmarkFigure12a(b *testing.B)     { benchExperiment(b, "fig12a") }
func BenchmarkFigure12b(b *testing.B)     { benchExperiment(b, "fig12b") }
func BenchmarkFigure12c(b *testing.B)     { benchExperiment(b, "fig12c") }
func BenchmarkExtPartitions(b *testing.B) { benchExperiment(b, "ext-partitions") }
func BenchmarkExtWalkers(b *testing.B)    { benchExperiment(b, "ext-walkers") }
func BenchmarkExtFiveLevel(b *testing.B)  { benchExperiment(b, "ext-5level") }
func BenchmarkExtIsolation(b *testing.B)  { benchExperiment(b, "ext-isolation") }

// benchSuite regenerates every registered experiment — the workload of
// one `cmd/experiments -quick` run — with the given worker count. The
// shared trace cache is reset each iteration so serial and parallel
// variants both pay trace construction, making their wall times directly
// comparable.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	benchSuiteOpts(b, experiments.Options{Seed: 42, Quick: true, Workers: workers})
}

// benchSuiteOpts is the generic suite driver: it reruns every registered
// experiment under the given options, resetting the shared trace cache
// each iteration so all variants pay identical trace-construction cost.
func benchSuiteOpts(b *testing.B, opts experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner.Shared().Reset()
		for _, e := range experiments.All {
			tbl, err := e.Run(opts)
			if err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				b.Fatalf("%s: no rows", e.ID)
			}
		}
	}
}

// BenchmarkSuiteQuick is the parallel-vs-serial suite comparison: the
// full quick experiment suite with one worker (the historical serial
// execution) versus the GOMAXPROCS worker pool. On an N-core machine the
// parallel variant's wall time should approach 1/N of the serial one
// (the sweep is embarrassingly parallel); output is identical either
// way. Run with:
//
//	go test -bench BenchmarkSuiteQuick -benchtime 1x -run '^$' .
func BenchmarkSuiteQuick(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchSuite(b, 1) })
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) { benchSuite(b, 0) })
}

// BenchmarkSuiteQuickWarmCache measures the steady-state suite with the
// shared trace cache already populated — the marginal cost of rerunning
// every experiment when no trace needs rebuilding.
func BenchmarkSuiteQuickWarmCache(b *testing.B) {
	opts := experiments.Options{Seed: 42, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All {
			if _, err := e.Run(opts); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// BenchmarkSuiteQuickObs quantifies the observability layer's overhead:
// the quick suite with the layer disabled (metric cells only — the
// always-on default every other benchmark also pays) versus the same
// suite with the time-series sampler attached to every simulation cell.
// The disabled variant must stay within noise of historical
// BenchmarkSuiteQuick/serial numbers (acceptance bound: < 5%). Run with:
//
//	go test -bench BenchmarkSuiteQuickObs -benchtime 1x -run '^$' .
func BenchmarkSuiteQuickObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchSuiteOpts(b, experiments.Options{Seed: 42, Quick: true, Workers: 1})
	})
	b.Run("sampled", func(b *testing.B) {
		benchSuiteOpts(b, experiments.Options{
			Seed: 42, Quick: true, Workers: 1,
			SampleEvery: 10 * sim.Microsecond,
		})
	})
}

// --- micro-benchmarks -------------------------------------------------

// nopSink is an event sink that does nothing: the engine benchmarks
// measure the bare schedule+fire cycle.
type nopSink struct{}

func (nopSink) HandleEvent(*sim.Engine, sim.Time, uint64) {}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(sim.Duration(i%64)*sim.Nanosecond, nopSink{}, 0)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineScheduleFirePending measures the schedule+fire cycle
// against queue depth: the engine is pre-loaded with N far-future events
// (parked in high wheel levels, all inside the 2^48 ps horizon, so the
// overflow heap stays empty) while the measured loop schedules and fires
// near events. A comparison-based heap pays O(log N) per operation here;
// the timing wheel's cost must stay flat from 10^2 to 10^6 pending
// events.
func BenchmarkEngineScheduleFirePending(b *testing.B) {
	for _, pending := range []int{100, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := sim.NewEngine()
			for i := 0; i < pending; i++ {
				// Spread the backlog across ~4 s of far future: many
				// distinct slots across several wheel levels.
				e.ScheduleEvent(sim.Second+sim.Duration(i)*3*sim.Microsecond, nopSink{}, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleEvent(sim.Duration(i%64)*sim.Nanosecond, nopSink{}, 0)
				if i%64 == 63 {
					for j := 0; j < 64; j++ {
						e.Step()
					}
				}
			}
		})
	}
}

// arrivalSink replays ht-16-hits' event pattern, where nearly every
// packet hits the DevTLB: each arrival (payload 0) schedules the next one
// a 200 Gb/s link slot (61.68 ns) out and its 2 ns hit-done (payload 1).
type arrivalSink struct{}

func (arrivalSink) HandleEvent(e *sim.Engine, _ sim.Time, payload uint64) {
	if payload == 0 {
		e.ScheduleEvent(61680*sim.Picosecond, arrivalSink{}, 0)
		e.ScheduleEvent(2*sim.Nanosecond, arrivalSink{}, 1)
	}
}

// BenchmarkEngineScheduleFireFew measures one fire, with the schedules
// it triggers, when only 2–4 events are pending: two interleaved arrival
// chains each keep one arrival queued, plus up to one hit-done each. This
// is the few-pending regime of ht-16-hits and base-1k, where the wheel's
// per-event overhead matters more than its O(1) scaling.
func BenchmarkEngineScheduleFireFew(b *testing.B) {
	e := sim.NewEngine()
	e.ScheduleEvent(0, arrivalSink{}, 0)
	e.ScheduleEvent(30*sim.Nanosecond, arrivalSink{}, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkNestedWalk times one full two-dimensional walk of a 2 MB
// mapping in the form the chipset issues it: WalkInto with a reused
// access buffer, so a warm walk allocates nothing.
func BenchmarkNestedWalk(b *testing.B) {
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	nt, err := mem.NewNestedTableLevels("t", 0x40000000, host, mem.Levels)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := nt.MapIOVA(0xbbe00000, mem.HugePageShift); err != nil {
		b.Fatal(err)
	}
	var buf []mem.NestedAccess
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nt.WalkInto(0xbbe00000+uint64(i)%mem.HugePageSize, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = res.Accesses
	}
}

// BenchmarkCache times one access (Lookup, then Insert on a miss) to
// each committed cache geometry of Table IV: the context cache, the
// DevTLB under both index modes, both page-walk caches and the Prefetch
// Buffer. Keys are drawn uniformly from four times the capacity, so
// about three accesses in four miss, fill and evict.
func BenchmarkCache(b *testing.B) {
	base, ht := core.BaseConfig(), core.HyperTRIOConfig()
	for _, cfg := range []tlb.Config{
		ht.IOMMU.ContextCache,
		base.DevTLB,
		ht.DevTLB,
		ht.IOMMU.L2PWC,
		ht.IOMMU.L3PWC,
		{Name: "prefetch-buffer", Sets: 1, Ways: ht.Prefetch.BufferEntries, Policy: tlb.LRU},
	} {
		name := fmt.Sprintf("%s-%dx%d-%s-%s", cfg.Name, cfg.Sets, cfg.Ways, cfg.Policy, cfg.Index)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]tlb.Key, 1<<16)
			for i := range keys {
				j := rng.Intn(4 * cfg.Entries())
				keys[i] = tlb.Key{SID: uint32(j), Tag: uint64(j)}
			}
			c := tlb.New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i%len(keys)]
				if _, ok := c.Lookup(key); !ok {
					c.Insert(tlb.Entry{Key: key, Value: uint64(i)})
				}
			}
		})
	}
}

// benchIOMMU builds 16 websearch tenants behind a chipset with the
// experiments' PWC geometry, no IOTLB and the given walk-memo size.
func benchIOMMU(b *testing.B, memoEntries int) (*iommu.IOMMU, []*workload.AddressSpace) {
	b.Helper()
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	tenants := mem.NewTenantTables(16)
	var spaces []*workload.AddressSpace
	for i := 1; i <= 16; i++ {
		as, err := workload.BuildAddressSpaceLevels(workload.ProfileFor(workload.Websearch), mem.SID(i), host, tenants, mem.Levels)
		if err != nil {
			b.Fatal(err)
		}
		spaces = append(spaces, as)
	}
	u := iommu.New(iommu.Config{
		ContextCache: iommu.DefaultContextCache(),
		L2PWC:        tlb.Config{Name: "l2", Sets: 32, Ways: 16, Policy: tlb.LFU},
		L3PWC:        tlb.Config{Name: "l3", Sets: 64, Ways: 16, Policy: tlb.LFU},
		MemoEntries:  memoEntries,
	}, tenants)
	return u, spaces
}

// BenchmarkIOMMUTranslate translates 2 MB data pages. After the first
// walk of each tenant's data granule they are L3-PWC resumes, which the
// walk memo never records, so each one walks the tables.
func BenchmarkIOMMUTranslate(b *testing.B) {
	u, spaces := benchIOMMU(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := spaces[i%len(spaces)]
		iova := as.DataPages[i%len(as.DataPages)]
		if _, err := u.Translate(as.SID, iova, mem.HugePageShift, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIOMMUTranslate4K translates 4 KB ring and init pages, the
// L2-PWC resume path that 2 MB pages never take. The walk memo is off,
// so every translation walks from the table address the L2 PWC holds.
func BenchmarkIOMMUTranslate4K(b *testing.B) {
	u, spaces := benchIOMMU(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := spaces[i%len(spaces)]
		iova := as.Ring
		if j := i % (len(as.InitPages) + 1); j > 0 {
			iova = as.InitPages[j-1]
		}
		if _, err := u.Translate(as.SID, iova, mem.PageShift, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Construct(trace.Config{
			Benchmark: workload.Iperf3, Tenants: 64,
			Interleave: trace.RR1, Seed: int64(i), Scale: 0.002,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Packets) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := workload.NewGenerator(workload.ProfileFor(workload.Websearch), 1, 42, 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			g = workload.NewGenerator(workload.ProfileFor(workload.Websearch), 1, int64(i), 1.0)
		}
	}
}

// BenchmarkAblation quantifies each HyperTRIO mechanism separately at a
// fixed hyper-tenant point (the DESIGN.md ablation: partitioning alone,
// +PTB, +prefetch).
func BenchmarkAblation(b *testing.B) {
	tr, err := hypertrio.ConstructTrace(hypertrio.TraceConfig{
		Benchmark:  hypertrio.Websearch,
		Tenants:    128,
		Interleave: hypertrio.RR1,
		Seed:       42,
		Scale:      0.002,
	})
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  func() hypertrio.Config
	}{
		{"base", hypertrio.BaseConfig},
		{"partition-only", func() hypertrio.Config {
			c := hypertrio.HyperTRIOConfig()
			c.PTBEntries = 1
			c.Prefetch = nil
			return c
		}},
		{"partition+ptb", func() hypertrio.Config {
			c := hypertrio.HyperTRIOConfig()
			c.Prefetch = nil
			return c
		}},
		{"full", hypertrio.HyperTRIOConfig},
	}
	for _, cc := range configs {
		cc := cc
		b.Run(cc.name, func(b *testing.B) {
			var last hypertrio.Result
			for i := 0; i < b.N; i++ {
				var err error
				last, err = hypertrio.Run(cc.cfg(), tr)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AchievedGbps, "modelGb/s")
		})
	}
}
