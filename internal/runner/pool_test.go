package runner

import (
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/core"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// testCells builds a small heterogeneous sweep: three tenant counts,
// Base and HyperTRIO each, all opening their traces through cache.
func testCells(cache *Cache) []Cell {
	var cells []Cell
	for _, n := range []int{2, 4, 8} {
		tc := trace.Config{
			Benchmark:  workload.Websearch,
			Tenants:    n,
			Interleave: trace.RR1,
			Seed:       42,
			Scale:      0.002,
		}
		cells = append(cells,
			Cell{Config: core.BaseConfig(), Open: cache.Open(tc)},
			Cell{Config: core.HyperTRIOConfig(), Open: cache.Open(tc)},
		)
	}
	return cells
}

func TestPoolEmpty(t *testing.T) {
	rs, err := Pool{}.Run(nil)
	if err != nil || rs != nil {
		t.Fatalf("empty run: %v, %v", rs, err)
	}
}

// TestPoolDeterministicAcrossWorkerCounts: any worker count must return
// the exact same results in the exact same submission order.
func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := testCells(NewCache())
	serial, err := Pool{Workers: 1}.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 6 {
		t.Fatalf("got %d results, want 6", len(serial))
	}
	// Sanity: HyperTRIO beats Base at 8 tenants (cells 4 and 5).
	if serial[5].AchievedGbps <= serial[4].AchievedGbps {
		t.Errorf("result order looks scrambled: HyperTRIO %.2f <= Base %.2f",
			serial[5].AchievedGbps, serial[4].AchievedGbps)
	}
	for _, workers := range []int{0, 2, 7, 32} {
		cells := testCells(NewCache())
		parallel, err := Pool{Workers: workers}.Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !reflect.DeepEqual(parallel[i], serial[i]) {
				t.Fatalf("workers=%d: result %d differs from serial run", workers, i)
			}
		}
	}
}

// TestPoolSharesCachedTraces: cells sweeping the same trace config must
// construct it once, not once per cell.
func TestPoolSharesCachedTraces(t *testing.T) {
	cache := NewCache()
	if _, err := (Pool{Workers: 4}).Run(testCells(cache)); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Misses != 3 {
		t.Errorf("built %d traces for 3 distinct configs", s.Misses)
	}
	if s.Hits != 3 {
		t.Errorf("reused %d times, want 3 (one per second design)", s.Hits)
	}
}

// TestPoolPrebuiltTrace: an opener over a trace built outside any cache
// replays it as-is, one fresh source per cell.
func TestPoolPrebuiltTrace(t *testing.T) {
	tr, err := trace.Construct(trace.Config{
		Benchmark:  workload.Iperf3,
		Tenants:    2,
		Interleave: trace.RR1,
		Seed:       7,
		Scale:      0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	open := func() (trace.Source, error) { return tr.Source(), nil }
	rs, err := Pool{Workers: 2}.Run([]Cell{
		{Config: core.BaseConfig(), Open: open},
		{Config: core.HyperTRIOConfig(), Open: open},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Packets != uint64(len(tr.Packets)) || rs[1].Packets != uint64(len(tr.Packets)) {
		t.Fatalf("unexpected results: %+v", rs)
	}
}

// TestPoolReportsLowestFailingCell: the error must name the first
// failing cell by submission index, deterministically.
func TestPoolReportsLowestFailingCell(t *testing.T) {
	bad := testTraceConfig()
	bad.Scale = -1
	cache := NewCache()
	cells := testCells(cache)
	cells[2] = Cell{Config: core.BaseConfig(), Open: cache.Open(bad)}
	_, err := Pool{Workers: 1}.Run(cells)
	if err == nil {
		t.Fatal("bad cell accepted")
	}
	if !strings.Contains(err.Error(), "cell 2") {
		t.Errorf("error does not name cell 2: %v", err)
	}
}

func TestPoolInvalidConfig(t *testing.T) {
	cfg := core.BaseConfig()
	cfg.PTBEntries = -1
	_, err := Pool{Workers: 2}.Run([]Cell{
		{Config: cfg, Open: NewCache().Open(testTraceConfig())},
	})
	if err == nil {
		t.Fatal("invalid system config accepted")
	}
}

// TestPoolOracleCellsShareTrace: oracle replacement reads per-cell
// future state from its source over the shared trace; running several oracle cells over
// one cached trace concurrently must not interfere (and is exercised
// under -race by the race CI target).
func TestPoolOracleCellsShareTrace(t *testing.T) {
	oracle := core.BaseConfig()
	oracle.DevTLB.Policy = tlb.Oracle
	tc := trace.Config{
		Benchmark:  workload.Mediastream,
		Tenants:    4,
		Interleave: trace.RR1,
		Seed:       42,
		Scale:      0.002,
	}
	cache := NewCache()
	cells := []Cell{
		{Config: oracle, Open: cache.Open(tc)},
		{Config: oracle, Open: cache.Open(tc)},
		{Config: oracle, Open: cache.Open(tc)},
	}
	rs, err := Pool{Workers: 3}.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[0], rs[1]) || !reflect.DeepEqual(rs[1], rs[2]) {
		t.Error("identical oracle cells diverged over a shared trace")
	}
	if s := cache.Stats(); s.Misses != 1 {
		t.Errorf("oracle cells built %d traces for one config", s.Misses)
	}
}

// TestPoolConcurrentSampling runs cells with the time-series sampler
// attached through a shared obs.Options across many workers: sampling
// state is per-System, so concurrent cells must neither race (the -race
// CI target covers this test) nor change any simulation outcome.
func TestPoolConcurrentSampling(t *testing.T) {
	cells := testCells(NewCache())
	plain, err := Pool{Workers: 4}.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	shared := &obs.Options{SampleEvery: 10 * sim.Microsecond}
	cells = testCells(NewCache())
	for i := range cells {
		cells[i].Config.Obs = shared
	}
	sampled, err := Pool{Workers: 4}.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sampled {
		if sampled[i].Series == nil || len(sampled[i].Series.Points) == 0 {
			t.Fatalf("cell %d: sampling on but no series", i)
		}
		sampled[i].Series = nil
		if !reflect.DeepEqual(plain[i], sampled[i]) {
			t.Fatalf("cell %d: sampling changed the result\noff: %+v\non:  %+v",
				i, plain[i], sampled[i])
		}
	}
}
