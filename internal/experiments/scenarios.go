package experiments

import (
	"fmt"

	"hypertrio/internal/core"
	"hypertrio/internal/runner"
	"hypertrio/internal/scenario"
	"hypertrio/internal/stats"
	"hypertrio/internal/trace"
)

// The five experiments below run the committed production-traffic
// scenario library (internal/scenario) against the same three designs
// the fault sweeps compare. Each experiment pairs an adversarial
// scenario with its control twin — Neutral() for adversary/envelope
// scenarios, WithoutOverlays() for the fault storm — so every table
// separates the adversary's cost from the population shape's. The
// signal tests in scenarios_test.go pin each pairing directionally:
// they fail if the adversarial signal vanishes, and they fail if the
// same signal shows up in the control.

// scenarioQuickScale shrinks a committed scenario for quick mode: the
// budget scale, phase durations, envelope periods and overlay event
// counts all scale together, so the quick variant keeps the full
// scenario's structure at ~15% of its length.
const scenarioQuickScale = 0.15

// scenarioFor resolves a committed scenario at the options' seed and
// quick scale.
func scenarioFor(name string, o Options) (*scenario.Scenario, error) {
	s, err := scenario.ByName(name)
	if err != nil {
		return nil, err
	}
	s.Seed = o.Seed
	if o.Quick {
		s = s.WithScale(scenarioQuickScale)
	}
	return s, nil
}

// simCompiled queues one simulation of cfg over a compiled scenario;
// every cell of the scenario shares its compiled trace, materialized
// once on the first worker that opens it.
func (s *sweep) simCompiled(cfg core.Config, comp *scenario.Compiled) {
	s.cells = append(s.cells, runner.Cell{Config: comp.Apply(cfg), Open: func() (trace.Source, error) {
		tr, err := comp.Materialize()
		if err != nil {
			return nil, err
		}
		return tr.Source(), nil
	}})
}

// scenarioPair compiles an adversarial scenario and its control and
// runs both across the three fault designs. Results come back in
// design order, adversarial cell first.
func scenarioPair(o Options, adv, control *scenario.Scenario) (*results, error) {
	compA, err := adv.Compile()
	if err != nil {
		return nil, err
	}
	compC, err := control.Compile()
	if err != nil {
		return nil, err
	}
	sw := newSweep(o)
	for _, d := range faultDesigns {
		sw.simCompiled(d.cfg(), compA)
		sw.simCompiled(d.cfg(), compC)
	}
	return sw.run()
}

// classOf returns the named class's breakdown from a run result.
func classOf(r core.Result, name string) (core.ClassResult, error) {
	for _, c := range r.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return core.ClassResult{}, fmt.Errorf("scenario run reported no class %q", name)
}

// ratioPercent formats a/b as a percentage.
func ratioPercent(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return stats.Percent(a / b)
}

// ExtNoisyNeighbor runs the noisy-neighbor scenario: four heavy-hitter
// tenants at eight arbitration slots each beside twelve victims. The
// victim columns against the neutral twin (same population, no
// over-weighting) measure the isolation each design preserves — the
// floor column is the fraction of its fair-share throughput the victim
// class keeps while the adversary runs.
func ExtNoisyNeighbor(o Options) (*stats.Table, error) {
	adv, err := scenarioFor("noisy-neighbor", o)
	if err != nil {
		return nil, err
	}
	res, err := scenarioPair(o, adv, adv.Neutral())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: noisy-neighbor scenario (12 iperf3 victims vs 4 weight-8 bullies)",
		"design", "victim Gb/s", "victim neutral", "floor", "bully Gb/s", "victim Jain", "victim lat")
	for _, d := range faultDesigns {
		a, n := res.next(), res.next()
		victim, err := classOf(a, "victim")
		if err != nil {
			return nil, err
		}
		bully, err := classOf(a, "bully")
		if err != nil {
			return nil, err
		}
		victimN, err := classOf(n, "victim")
		if err != nil {
			return nil, err
		}
		t.AddRow(d.name,
			stats.Gbps(victim.Gbps*1e9), stats.Gbps(victimN.Gbps*1e9),
			ratioPercent(victim.Gbps, victimN.Gbps),
			stats.Gbps(bully.Gbps*1e9),
			fmt.Sprintf("%.3f", victim.Fairness),
			victim.AvgLatency.String())
	}
	return t, nil
}

// ExtSIDFlood runs the SID-flood scenario: two IOTLB-thrasher tenants
// sweeping single-use translations through the shared caches beside
// twelve victims. Partitioned designs confine the sweep to the
// thrashers' own partitions; the victim hit-rate and latency columns
// against the neutral twin measure how much of the shared-cache
// pollution each design absorbs.
func ExtSIDFlood(o Options) (*stats.Table, error) {
	adv, err := scenarioFor("sid-flood", o)
	if err != nil {
		return nil, err
	}
	res, err := scenarioPair(o, adv, adv.Neutral())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: SID-flood scenario (12 iperf3 victims vs 2 weight-4 IOTLB thrashers)",
		"design", "victim Gb/s", "victim neutral", "floor", "devtlb hit", "neutral hit", "victim lat")
	for _, d := range faultDesigns {
		a, n := res.next(), res.next()
		victim, err := classOf(a, "victim")
		if err != nil {
			return nil, err
		}
		victimN, err := classOf(n, "victim")
		if err != nil {
			return nil, err
		}
		t.AddRow(d.name,
			stats.Gbps(victim.Gbps*1e9), stats.Gbps(victimN.Gbps*1e9),
			ratioPercent(victim.Gbps, victimN.Gbps),
			stats.Percent(a.DevTLB.HitRate()), stats.Percent(n.DevTLB.HitRate()),
			victim.AvgLatency.String())
	}
	return t, nil
}

// ExtIncast runs the incast scenario: synchronized microbursts to full
// rate against a flat envelope at the same baseline. The burst columns
// measure the queueing each design absorbs when the translation path
// takes a cold spike at the top of every period.
func ExtIncast(o Options) (*stats.Table, error) {
	adv, err := scenarioFor("incast", o)
	if err != nil {
		return nil, err
	}
	res, err := scenarioPair(o, adv, adv.Neutral())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: incast scenario (16 mediastream tenants, 25 us bursts to full rate every 100 us)",
		"design", "incast Gb/s", "flat Gb/s", "incast lat", "flat lat", "incast miss lat", "flat miss lat")
	for _, d := range faultDesigns {
		a, n := res.next(), res.next()
		ca, err := classOf(a, "ms")
		if err != nil {
			return nil, err
		}
		cn, err := classOf(n, "ms")
		if err != nil {
			return nil, err
		}
		t.AddRow(d.name, gbps(a), gbps(n),
			ca.AvgLatency.String(), cn.AvgLatency.String(),
			a.AvgMissLatency.String(), n.AvgMissLatency.String())
	}
	return t, nil
}

// ExtDiurnal runs the diurnal scenario: a triangle wave between 25%
// and 95% load over three periods, against a flat envelope at the
// trough. Throughput tracks the envelope; the latency and hit-rate
// columns show what the daily peak costs each design.
func ExtDiurnal(o Options) (*stats.Table, error) {
	adv, err := scenarioFor("diurnal", o)
	if err != nil {
		return nil, err
	}
	res, err := scenarioPair(o, adv, adv.Neutral())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: diurnal scenario (16 websearch tenants, 25-95% triangle wave)",
		"design", "diurnal Gb/s", "flat Gb/s", "diurnal lat", "flat lat", "diurnal hit", "flat hit")
	for _, d := range faultDesigns {
		a, n := res.next(), res.next()
		ca, err := classOf(a, "web")
		if err != nil {
			return nil, err
		}
		cn, err := classOf(n, "web")
		if err != nil {
			return nil, err
		}
		t.AddRow(d.name, gbps(a), gbps(n),
			ca.AvgLatency.String(), cn.AvgLatency.String(),
			stats.Percent(a.DevTLB.HitRate()), stats.Percent(n.DevTLB.HitRate()))
	}
	return t, nil
}

// ExtStorm runs the invalidation-storm scenario: a shootdown storm and
// a walker-fault storm landing exactly at peak load, against the same
// envelope with no faults (WithoutOverlays). The loss column is the
// bandwidth the storm costs at equal offered load. On the unpartitioned
// Base design the two storms interact nonlinearly (each alone costs
// bandwidth, together the stall windows re-synchronize the drop-retry
// loop and walks coalesce); the partitioned designs respond
// monotonically, which is what the signal test pins.
func ExtStorm(o Options) (*stats.Table, error) {
	adv, err := scenarioFor("storm", o)
	if err != nil {
		return nil, err
	}
	res, err := scenarioPair(o, adv, adv.WithoutOverlays())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: invalidation storm at peak load (16 iperf3 tenants, ramp-peak-cool)",
		"design", "storm Gb/s", "calm Gb/s", "loss", "storm walks", "calm walks", "storm miss lat")
	for _, d := range faultDesigns {
		a, n := res.next(), res.next()
		loss := "n/a"
		if n.AchievedGbps > 0 {
			loss = stats.Percent(1 - a.AchievedGbps/n.AchievedGbps)
		}
		t.AddRow(d.name, gbps(a), gbps(n), loss,
			itoa(int(a.IOMMU.Walks)), itoa(int(n.IOMMU.Walks)),
			a.AvgMissLatency.String())
	}
	return t, nil
}
