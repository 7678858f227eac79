package pipeline

import (
	"strings"
	"testing"

	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
)

func testEnv() Env {
	return Env{
		Lat: Latencies{
			PCIeOneWay:   450 * sim.Nanosecond,
			DRAMLatency:  50 * sim.Nanosecond,
			TLBHit:       2 * sim.Nanosecond,
			Interarrival: 60 * sim.Nanosecond,
		},
	}
}

// testConfig is a small chain: ptbEntries admission slots (0 for none),
// a 4x4 chipset, and optionally a 4x4 DevTLB and the prefetch stages.
func testConfig(ptbEntries int, devtlb, prefetch bool) Config {
	cfg := Config{
		PTBEntries: ptbEntries,
		IOMMU: iommu.Config{
			ContextCache: iommu.DefaultContextCache(),
			L2PWC:        tlb.Config{Name: "l2pwc", Sets: 4, Ways: 4, Policy: tlb.LRU, Index: tlb.ByAddress},
			L3PWC:        tlb.Config{Name: "l3pwc", Sets: 4, Ways: 4, Policy: tlb.LRU, Index: tlb.ByAddress},
		},
	}
	if devtlb {
		cfg.DevTLB = tlb.Config{Name: "devtlb", Sets: 4, Ways: 4, Policy: tlb.LRU, Index: tlb.ByAddress}
	}
	if prefetch {
		pf := device.DefaultPrefetchConfig()
		cfg.Prefetch = &pf
	}
	return cfg
}

// countingTask records every RunWalk payload, standing in for a stage.
type countingTask struct{ payloads []uint64 }

func (c *countingTask) RunWalk(_ *sim.Engine, payload uint64) {
	c.payloads = append(c.payloads, payload)
}

func TestWalkerPoolBoundsConcurrency(t *testing.T) {
	e := sim.NewEngine()
	p := NewWalkerPool(2)
	task := &countingTask{}
	p.Acquire(e, task, 0)
	p.Acquire(e, task, 1)
	p.Acquire(e, task, 2) // queues: both walkers busy
	if len(task.payloads) != 2 || p.Busy() != 2 || p.Queued() != 1 {
		t.Fatalf("ran=%d busy=%d queued=%d, want 2/2/1", len(task.payloads), p.Busy(), p.Queued())
	}
	p.Release(e) // hands the walker straight to the queued task
	if len(task.payloads) != 3 || p.Busy() != 2 || p.Queued() != 0 {
		t.Fatalf("after release: ran=%d busy=%d queued=%d, want 3/2/0", len(task.payloads), p.Busy(), p.Queued())
	}
	want := []uint64{0, 1, 2}
	for i, got := range task.payloads {
		if got != want[i] {
			t.Fatalf("payloads ran out of order: got %v, want %v", task.payloads, want)
		}
	}
	p.Release(e)
	p.Release(e)
	if p.Busy() != 0 {
		t.Fatalf("busy=%d after all releases", p.Busy())
	}
}

func TestWalkerPoolUnlimited(t *testing.T) {
	e := sim.NewEngine()
	p := NewWalkerPool(0)
	task := &countingTask{}
	for i := 0; i < 10; i++ {
		p.Acquire(e, task, uint64(i))
	}
	if len(task.payloads) != 10 || p.Queued() != 0 {
		t.Fatalf("unlimited pool queued work: ran=%d queued=%d", len(task.payloads), p.Queued())
	}
}

func TestWalkerPoolQueueReusesBacking(t *testing.T) {
	e := sim.NewEngine()
	p := NewWalkerPool(1)
	task := &countingTask{}
	p.Acquire(e, task, 0)
	// Warm the queue's backing array, then drain it.
	for i := 1; i <= 4; i++ {
		p.Acquire(e, task, uint64(i))
	}
	for i := 0; i < 4; i++ {
		p.Release(e)
	}
	p.Release(e)
	if p.Busy() != 0 || p.Queued() != 0 {
		t.Fatalf("pool not drained: busy=%d queued=%d", p.Busy(), p.Queued())
	}
	// Steady-state queue churn within the warmed capacity must not
	// allocate.
	allocs := testing.AllocsPerRun(100, func() {
		p.Acquire(e, task, 1)
		p.Acquire(e, task, 2)
		p.Acquire(e, task, 3)
		p.Release(e)
		p.Release(e)
		p.Release(e)
	})
	if allocs != 0 {
		t.Fatalf("walker queue churn allocated %v per run, want 0", allocs)
	}
}

// TestEmptyChainIsTotal pins the native-path contract: every chain method
// works on the empty chain, so core never branches on stage presence.
func TestEmptyChainIsTotal(t *testing.T) {
	c := New(testEnv(), Config{})
	e := sim.NewEngine()
	if !c.Admit() {
		t.Fatal("empty chain refused admission")
	}
	c.ReleaseSlot()
	c.Observe(1)
	c.MaybePrefetch(e, 1)
	c.Invalidate(1, 0x1000, 12)
	if c.Lookup(e, Request{SID: 1, IOVA: 0x1000, Shift: 12}) {
		t.Fatal("empty chain claimed a hit")
	}
	if c.WalkersBusy() != 0 || c.WalkQueue() != 0 || c.PTBInUse() != 0 {
		t.Fatal("empty chain reports occupancy")
	}
	if s := c.DevTLBStats(); s != (tlb.Stats{}) {
		t.Fatalf("empty chain cache stats: %+v", s)
	}
	if got := c.Describe(); !strings.Contains(got, "translation off") {
		t.Fatalf("empty chain describe: %q", got)
	}
	if c.PrefetchStats().Served != 0 {
		t.Fatal("served counter non-zero")
	}
}

// TestInvalidatePropagation checks that a chain-level invalidate reaches
// every composed stage, the chipset included, across all enabled-stage
// combinations.
func TestInvalidatePropagation(t *testing.T) {
	const (
		sid   = mem.SID(3)
		iova  = uint64(0x7000)
		shift = uint8(12)
	)
	key := iommu.PageKey(sid, iova, shift)
	combos := []struct {
		name             string
		devtlb, prefetch bool
	}{
		{"chipset only", false, false},
		{"devtlb", true, false},
		{"prefetch", false, true},
		{"devtlb+prefetch", true, true},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			c := New(testEnv(), testConfig(4, combo.devtlb, combo.prefetch))

			// Seed every translation-holding stage with the page.
			var chipset *ChipsetStage
			for _, st := range c.Stages() {
				switch v := st.(type) {
				case *CacheStage:
					v.Fill(Request{SID: sid, IOVA: iova, Shift: shift}, 0xBEEF000)
				case *PrefetchBufferStage:
					v.Unit().Complete(sid, []tlb.Entry{{Key: key, Value: 0xBEEF000, PageShift: shift}}, 0)
				case *ChipsetStage:
					v.IOMMU().History().Record(sid, iova, shift)
					chipset = v
				}
			}
			e := sim.NewEngine()
			if combo.devtlb || combo.prefetch {
				if !c.Lookup(e, Request{SID: sid, IOVA: iova, Shift: shift}) {
					t.Fatal("seeded page not found before invalidate")
				}
			}

			c.Invalidate(sid, iova, shift)

			if c.Lookup(e, Request{SID: sid, IOVA: iova, Shift: shift}) {
				t.Fatal("page still served after invalidate")
			}
			if got := chipset.IOMMU().History().Recent(sid, 8); len(got) != 0 {
				t.Fatalf("chipset history still holds %v after invalidate", got)
			}
			// The broadcast must also reach stages individually, not just
			// miss at the chain level.
			for _, st := range c.Stages() {
				switch v := st.(type) {
				case *CacheStage:
					if _, ok := v.Cache().Lookup(key); ok {
						t.Fatalf("stage %s still holds the page", v.Name())
					}
				case *PrefetchBufferStage:
					if _, ok := v.Unit().Lookup(key); ok {
						t.Fatal("prefetch buffer still holds the page")
					}
				}
			}
		})
	}
}

// TestServedCountsPerStage checks the chain's hit attribution: a request
// present only in the prefetch buffer is credited to it, not the DevTLB.
func TestServedCountsPerStage(t *testing.T) {
	c := New(testEnv(), testConfig(4, true, true))
	key := iommu.PageKey(1, 0x3000, 12)
	for _, st := range c.Stages() {
		if v, ok := st.(*PrefetchBufferStage); ok {
			v.Unit().Complete(1, []tlb.Entry{{Key: key, Value: 0xF000, PageShift: 12}}, 0)
		}
	}
	e := sim.NewEngine()
	if !c.Lookup(e, Request{SID: 1, IOVA: 0x3000, Shift: 12}) {
		t.Fatal("prefetched page not served")
	}
	if got := c.PrefetchStats().Served; got != 1 {
		t.Fatalf("prefetch served = %d, want 1", got)
	}
	if got := c.DevTLBStats().Hits; got != 0 {
		t.Fatalf("devtlb served = %d, want 0", got)
	}
}

// TestDescribeListsStages pins the -describe rendering to the composed
// stage names in order.
func TestDescribeListsStages(t *testing.T) {
	got := New(testEnv(), testConfig(32, true, true)).Describe()
	last := -1
	for _, name := range []string{"ptb", "devtlb", "prefetch", "iommu", "history-reader"} {
		i := strings.Index(got, name)
		if i < 0 {
			t.Fatalf("describe output missing %q:\n%s", name, got)
		}
		if i < last {
			t.Fatalf("describe lists %q out of order:\n%s", name, got)
		}
		last = i
	}
}
