package experiments

import (
	"fmt"

	"hypertrio/internal/core"
	"hypertrio/internal/runner"
	"hypertrio/internal/stats"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// megaTenantCounts returns the tenant-count sweep and the per-cell packet
// budget of the million-tenant experiment. Full mode climbs three decades
// to 10⁶ tenants — the "hyper-tenant" regime the paper argues future hosts
// reach (§I projects tenant counts growing with core counts and SR-IOV
// virtual functions) — while quick mode stops at 10⁴ so the CI suite stays
// fast.
func megaTenantCounts(o Options) (counts []int, budget int) {
	if o.Quick {
		return []int{1_000, 10_000}, 100_000
	}
	return []int{1_000, 10_000, 100_000, 1_000_000}, 2_000_000
}

// megaTenantTrace is the canonical trace config of one sweep point:
// iperf3 (the fewest per-tenant streams, so generator state is smallest),
// round-robin interleave, and the compact RNG — at 10⁶ tenants the
// standard source's per-generator state alone would cost ~5 GB.
func megaTenantTrace(n, budget int, o Options) trace.Config {
	ppt := budget / n
	if ppt < 3 {
		ppt = 3
	}
	return trace.Config{
		Benchmark:  workload.Iperf3,
		Tenants:    n,
		Interleave: trace.RR1,
		Seed:       o.Seed,
		Scale:      scaleFor(workload.Iperf3, ppt),
		RNG:        workload.CompactRNG,
	}
}

// ExtMegaTenant sweeps Base vs HyperTRIO from 10³ to 10⁶ tenants using
// streaming sources: no cell ever materializes its trace, so memory is
// O(tenants) — the shared template tables are O(RingSlots) and the
// generator population is the only per-tenant state. The table
// reports how translation performance and fairness hold up as the tenant
// population outgrows every cached structure by orders of magnitude.
func ExtMegaTenant(o Options) (*stats.Table, error) {
	counts, budget := megaTenantCounts(o)
	sw := newSweep(o)
	for _, n := range counts {
		// Every cell streams its own source: bounded memory at any scale
		// is the point of the experiment.
		open := func() (trace.Source, error) { return trace.NewStream(megaTenantTrace(n, budget, o)) }
		sw.cells = append(sw.cells,
			runner.Cell{Config: core.BaseConfig(), Open: open},
			runner.Cell{Config: core.HyperTRIOConfig(), Open: open})
	}
	res, err := sw.run()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: million-tenant scale-out with streaming sources (iperf3, RR1, compact RNG)",
		"tenants", "Base Gb/s", "HT Gb/s", "Base devtlb hit", "HT devtlb hit", "HT Jain", "HT prefetch share")
	for _, n := range counts {
		base, ht := res.next(), res.next()
		t.AddRow(itoa(n), gbps(base), gbps(ht),
			stats.Percent(base.DevTLB.HitRate()),
			stats.Percent(ht.DevTLB.HitRate()),
			fmt.Sprintf("%.3f", ht.LatencyFairness),
			stats.Percent(ht.PrefetchServedShare()))
	}
	return t, nil
}
