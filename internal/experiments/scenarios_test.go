package experiments

import (
	"reflect"
	"testing"

	"hypertrio/internal/core"
	"hypertrio/internal/scenario"
)

// scenarioResults runs one committed scenario (by name, quick scale)
// and its control across the three fault designs and returns the
// results keyed by design name: [adversarial, control] per design.
func scenarioResults(t *testing.T, name string, o Options, control func(*scenario.Scenario) *scenario.Scenario) map[string][2]core.Result {
	t.Helper()
	adv, err := scenarioFor(name, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenarioPair(o, adv, control(adv))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2]core.Result, len(faultDesigns))
	for _, d := range faultDesigns {
		out[d.name] = [2]core.Result{res.next(), res.next()}
	}
	return out
}

func neutralOf(s *scenario.Scenario) *scenario.Scenario { return s.Neutral() }
func calmOf(s *scenario.Scenario) *scenario.Scenario    { return s.WithoutOverlays() }
func perTenant(c core.ClassResult) float64              { return c.Gbps / float64(c.Tenants) }
func class(t *testing.T, r core.Result, name string) core.ClassResult {
	t.Helper()
	c, err := classOf(r, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The noisy-neighbor signal: under the adversary the bully class takes
// several times a victim tenant's share, yet HyperTRIO's partitions
// hold the victim class at its arbitration-share floor. On the neutral
// twin the same assertions fail — per-tenant throughput is balanced —
// which is what makes this a signal and not a tautology.
func TestNoisyNeighborSignal(t *testing.T) {
	rs := scenarioResults(t, "noisy-neighbor", quick(), neutralOf)
	advR, neuR := rs["HyperTRIO"][0], rs["HyperTRIO"][1]
	victim, bully := class(t, advR, "victim"), class(t, advR, "bully")
	victimN, bullyN := class(t, neuR, "victim"), class(t, neuR, "bully")

	// Adversarial run: the bully really over-occupies.
	if perTenant(bully) < 2*perTenant(victim) {
		t.Errorf("adversary signal missing: bully %.2f Gb/s per tenant vs victim %.2f",
			perTenant(bully), perTenant(victim))
	}
	// Isolation floor: the victim class keeps at least 30% of its
	// neutral throughput — its fair arbitration share under a weight-8
	// bully is 12/44 slots vs 12/16 neutral, i.e. ~36%; a design that
	// let the bully damage victims beyond arbitration would fall below.
	if victimN.Gbps <= 0 {
		t.Fatal("neutral victim throughput is zero")
	}
	if floor := victim.Gbps / victimN.Gbps; floor < 0.30 {
		t.Errorf("victim floor %.2f under noisy neighbor, want >= 0.30", floor)
	}
	// Control: no imbalance on the neutral twin — the adversarial
	// assertion above would fail against these results.
	if r := perTenant(bullyN) / perTenant(victimN); r < 0.8 || r > 1.25 {
		t.Errorf("neutral twin shows per-tenant imbalance %.2f; the control leaked signal", r)
	}
}

// The SID-flood signal: the thrashers sweep the shared translation
// caches, so the run-wide DevTLB hit rate and the victims' throughput
// both degrade against the neutral twin; HyperTRIO still holds the
// victim class above half its clean throughput.
func TestSIDFloodSignal(t *testing.T) {
	rs := scenarioResults(t, "sid-flood", quick(), neutralOf)
	advR, neuR := rs["HyperTRIO"][0], rs["HyperTRIO"][1]
	if advR.DevTLB.HitRate() > neuR.DevTLB.HitRate()-0.05 {
		t.Errorf("flood signal missing: hit rate %.3f vs neutral %.3f",
			advR.DevTLB.HitRate(), neuR.DevTLB.HitRate())
	}
	victim, victimN := class(t, advR, "victim"), class(t, neuR, "victim")
	floor := victim.Gbps / victimN.Gbps
	if floor > 0.95 {
		t.Errorf("flood cost invisible: victim floor %.2f", floor)
	}
	if floor < 0.50 {
		t.Errorf("isolation regressed: HyperTRIO victim floor %.2f under SID flood, want >= 0.50", floor)
	}
	if victim.AvgLatency < victimN.AvgLatency {
		t.Errorf("victim latency improved under flood: %v vs %v", victim.AvgLatency, victimN.AvgLatency)
	}
}

// The incast signal: microbursts raise the mean offered load above the
// flat baseline, and HyperTRIO tracks the envelope; the translation-
// bound Base design barely notices — the signal is arrival-side.
func TestIncastSignal(t *testing.T) {
	rs := scenarioResults(t, "incast", quick(), neutralOf)
	adv, neu := rs["HyperTRIO"][0], rs["HyperTRIO"][1]
	if adv.AchievedGbps < neu.AchievedGbps*1.05 {
		t.Errorf("incast signal missing: %.2f Gb/s vs flat %.2f", adv.AchievedGbps, neu.AchievedGbps)
	}
	if ca, cn := class(t, adv, "ms"), class(t, neu, "ms"); ca.AvgLatency < cn.AvgLatency {
		t.Errorf("burst latency below flat latency: %v vs %v", ca.AvgLatency, cn.AvgLatency)
	}
	base, baseN := rs["Base"][0], rs["Base"][1]
	if r := base.AchievedGbps / baseN.AchievedGbps; r < 0.95 || r > 1.1 {
		t.Errorf("translation-bound Base moved %.3fx under incast; envelope should not bind it", r)
	}
}

// The diurnal signal: the triangle wave's mean load is far above the
// trough baseline, so a design that can follow arrivals delivers
// proportionally more bandwidth than its flat-trough twin.
func TestDiurnalSignal(t *testing.T) {
	rs := scenarioResults(t, "diurnal", quick(), neutralOf)
	adv, neu := rs["HyperTRIO"][0], rs["HyperTRIO"][1]
	if adv.AchievedGbps < neu.AchievedGbps*1.5 {
		t.Errorf("diurnal signal missing: %.2f Gb/s vs flat-trough %.2f", adv.AchievedGbps, neu.AchievedGbps)
	}
}

// The storm signal: partitioning alone (single PTB entry, no latency
// hiding) pays for the shootdown/walker-fault storm in bandwidth,
// while the full design re-walks everything the storm invalidated —
// visibly more walks — at no bandwidth cost. Both assertions fail
// against the calm control by construction.
func TestStormSignal(t *testing.T) {
	rs := scenarioResults(t, "storm", quick(), calmOf)
	part, partCalm := rs["part"][0], rs["part"][1]
	if part.AchievedGbps > partCalm.AchievedGbps*0.9 {
		t.Errorf("storm cost invisible on part: %.2f vs calm %.2f", part.AchievedGbps, partCalm.AchievedGbps)
	}
	ht, htCalm := rs["HyperTRIO"][0], rs["HyperTRIO"][1]
	if ht.IOMMU.Walks < htCalm.IOMMU.Walks*3/2 {
		t.Errorf("storm re-walks missing: %d walks vs calm %d", ht.IOMMU.Walks, htCalm.IOMMU.Walks)
	}
	if ht.AchievedGbps < htCalm.AchievedGbps*0.99 {
		t.Errorf("HyperTRIO lost bandwidth to the storm: %.2f vs calm %.2f", ht.AchievedGbps, htCalm.AchievedGbps)
	}
}

// Conservation holds under every committed scenario: with the
// invariants stage composed into every cell the engine itself asserts
// attempts == packets + drops (and admission/occupancy bounds) while
// it runs, and the per-class breakdown must reconcile exactly with the
// run totals.
func TestScenarioConservation(t *testing.T) {
	o := quick()
	o.Invariants = true
	for _, name := range []string{"noisy-neighbor", "sid-flood", "incast", "diurnal", "storm"} {
		s, err := scenarioFor(name, o)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sw := newSweep(o)
		for _, d := range faultDesigns {
			if err := sw.simCompiled(d.cfg(), comp); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sw.run()
		if err != nil {
			t.Fatalf("%s: invariant violation or run failure: %v", name, err)
		}
		for _, d := range faultDesigns {
			r := res.next()
			var pkts, drops uint64
			tenants := 0
			for _, c := range r.Classes {
				pkts += c.Packets
				drops += c.Drops
				tenants += c.Tenants
				if c.Fairness < 0 || c.Fairness > 1.000001 {
					t.Errorf("%s/%s: class %s Jain index %v out of range", name, d.name, c.Name, c.Fairness)
				}
			}
			if pkts != r.Packets || drops != r.Drops {
				t.Errorf("%s/%s: class sums (%d pkts, %d drops) != totals (%d, %d)",
					name, d.name, pkts, drops, r.Packets, r.Drops)
			}
			if tenants != s.TotalTenants() {
				t.Errorf("%s/%s: class tenants sum to %d, scenario has %d", name, d.name, tenants, s.TotalTenants())
			}
		}
	}
}

// Every committed scenario produces the identical Result — not just
// the same table cells — from a materialized trace and from a stream.
// The quick-suite golden tests pin the same property at the
// rendered-output level; this pins the full result structs, per run
// mode, with a precise failure message.
func TestScenarioDifferentialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario twice; skipped in -short mode")
	}
	modes := []struct {
		name   string
		stream bool
	}{
		{"serial", false},
		{"stream", true},
	}
	for _, name := range []string{"noisy-neighbor", "sid-flood", "incast", "diurnal", "storm"} {
		var ref core.Result
		for i, m := range modes {
			o := quick()
			o.Stream = m.stream
			s, err := scenarioFor(name, o)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sw := newSweep(o)
			if err := sw.simCompiled(core.HyperTRIOConfig(), comp); err != nil {
				t.Fatal(err)
			}
			res, err := sw.run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			r := res.next()
			r.Series = nil
			if i == 0 {
				ref = r
				continue
			}
			if !reflect.DeepEqual(r, ref) {
				t.Errorf("%s: %s diverged from serial:\n%+v\n%+v", name, m.name, r, ref)
			}
		}
	}
}
