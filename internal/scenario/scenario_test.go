package scenario

import (
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/core"
	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Every committed scenario validates, compiles, and resolves the
// pieces its shape implies: a shaper iff some phase offers less than
// flat full load, a plan iff it has overlays.
func TestLibraryCompiles(t *testing.T) {
	lib := library(t)
	if len(lib) != 5 {
		t.Fatalf("library has %d scenarios, want 5", len(lib))
	}
	wantShaper := map[string]bool{"noisy-neighbor": false, "sid-flood": false, "incast": true, "diurnal": true, "storm": true}
	wantPlan := map[string]bool{"storm": true}
	for _, s := range lib {
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := c.Shaper != nil; got != wantShaper[s.Name] {
			t.Errorf("%s: shaper presence = %v, want %v", s.Name, got, wantShaper[s.Name])
		}
		if got := c.Plan != nil; got != wantPlan[s.Name] {
			t.Errorf("%s: plan presence = %v, want %v", s.Name, got, wantPlan[s.Name])
		}
		if c.Horizon <= 0 {
			t.Errorf("%s: horizon %v", s.Name, c.Horizon)
		}
		if _, err := ByName(s.Name); err != nil {
			t.Errorf("ByName(%s): %v", s.Name, err)
		}
	}
	if _, err := ByName("no-such"); err == nil {
		t.Error("ByName accepted an unknown name")
	}
}

// The neutral twin drops every adversarial ingredient but keeps the
// population shape.
func TestNeutralTwin(t *testing.T) {
	s := mustByName(t, "storm")
	s.Classes[0].Role = RoleNoisyNeighbor // make the twin do some work
	n := s.Neutral()
	if n.Name != "storm-neutral" {
		t.Fatalf("name = %q", n.Name)
	}
	if len(n.Overlays) != 0 {
		t.Fatalf("neutral kept overlays: %v", n.Overlays)
	}
	for _, cl := range n.Classes {
		if cl.Role != RoleNone || cl.Weight != 0 {
			t.Fatalf("neutral kept adversary class: %+v", cl)
		}
	}
	for i, ph := range n.Phases {
		if ph.Env.Kind != EnvFlat {
			t.Fatalf("phase %d not flattened: %+v", i, ph.Env)
		}
		if ph.Env.Level != s.Phases[i].Env.Level {
			t.Fatalf("phase %d baseline changed: %v vs %v", i, ph.Env.Level, s.Phases[i].Env.Level)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// The original is untouched (clone semantics).
	if len(s.Overlays) == 0 || s.Classes[0].Role != RoleNoisyNeighbor {
		t.Fatal("Neutral mutated its receiver")
	}
	c := s.WithoutOverlays()
	if c.Name != "storm-calm" || len(c.Overlays) != 0 || c.Classes[0].Role != RoleNoisyNeighbor {
		t.Fatalf("WithoutOverlays wrong shape: %+v", c)
	}
}

// WithScale shrinks every extent together and floors at the smallest
// meaningful value.
func TestWithScale(t *testing.T) {
	s := mustByName(t, "incast")
	q := s.WithScale(0.5)
	if q.Scale != s.Scale*0.5 {
		t.Fatalf("scale = %v", q.Scale)
	}
	if q.Phases[0].Dur != s.Phases[0].Dur/2 {
		t.Fatalf("dur = %v, want %v", q.Phases[0].Dur, s.Phases[0].Dur/2)
	}
	if q.Phases[1].Env.Period != s.Phases[1].Env.Period/2 || q.Phases[1].Env.Burst != s.Phases[1].Env.Burst/2 {
		t.Fatalf("envelope extents not scaled: %+v", q.Phases[1].Env)
	}
	st := mustByName(t, "storm").WithScale(0.001)
	for _, ov := range st.Overlays {
		if ov.Events < 1 {
			t.Fatalf("events scaled below 1: %+v", ov)
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Validate rejects each class of malformed scenario with a targeted
// error.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"bad scale", func(s *Scenario) { s.Scale = 0 }, "scale"},
		{"nan scale", func(s *Scenario) { s.Scale = nan() }, "scale"},
		{"no classes", func(s *Scenario) { s.Classes = nil }, "classes"},
		{"dup class", func(s *Scenario) { s.Classes = append(s.Classes, s.Classes[0]) }, "duplicate class"},
		{"empty class name", func(s *Scenario) { s.Classes[0].Name = "" }, "name required"},
		{"bad utf8 name", func(s *Scenario) { s.Classes[0].Name = "x\xff" }, "UTF-8"},
		{"long name", func(s *Scenario) { s.Name = strings.Repeat("n", maxNameLen+1) }, "longer"},
		{"zero tenants", func(s *Scenario) { s.Classes[0].Tenants = 0 }, "tenants"},
		{"huge weight", func(s *Scenario) { s.Classes[0].Weight = maxWeight + 1 }, "weight"},
		{"nan class scale", func(s *Scenario) { s.Classes[0].Scale = nan() }, "scale"},
		{"no phases", func(s *Scenario) { s.Phases = nil }, "phases"},
		{"dup phase", func(s *Scenario) { s.Phases = append(s.Phases, s.Phases[0]) }, "duplicate phase"},
		{"zero dur", func(s *Scenario) { s.Phases[0].Dur = 0 }, "duration"},
		{"nan level", func(s *Scenario) { s.Phases[0].Env.Level = nan() }, "level"},
		{"flat with peak", func(s *Scenario) { s.Phases[0].Env.Peak = 0.5 }, "flat"},
		{"dangling overlay phase", func(s *Scenario) {
			s.Overlays = []Overlay{{Phase: "nope", Kind: OverlayFlushStorm, Events: 1}}
		}, "unknown phase"},
		{"dangling overlay class", func(s *Scenario) {
			s.Overlays = []Overlay{{Phase: s.Phases[0].Name, Kind: OverlayShootdownStorm, Events: 1, Class: "nope"}}
		}, "unknown class"},
		{"zero events", func(s *Scenario) {
			s.Overlays = []Overlay{{Phase: s.Phases[0].Name, Kind: OverlayFlushStorm, Events: 0}}
		}, "events"},
		{"fire cap", func(s *Scenario) {
			s.Overlays = []Overlay{
				{Phase: s.Phases[0].Name, Kind: OverlayFlushStorm, Events: maxOverlayFires},
				{Phase: s.Phases[0].Name, Kind: OverlayShootdownStorm, Events: 1},
			}
		}, "exceeds"},
		{"bad incast burst", func(s *Scenario) {
			s.Phases[0].Env = Envelope{Kind: EnvIncast, Level: 0.5, Peak: 1, Period: 10, Burst: 11}
		}, "burst"},
		{"diurnal burst", func(s *Scenario) {
			s.Phases[0].Env = Envelope{Kind: EnvDiurnal, Level: 0.5, Peak: 1, Period: 10, Burst: 1}
		}, "burst"},
		{"ramp period", func(s *Scenario) {
			s.Phases[0].Env = Envelope{Kind: EnvRamp, Level: 0.5, Peak: 1, Period: 10}
		}, "period"},
	}
	for _, tc := range cases {
		s := mustByName(t, "noisy-neighbor")
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// Envelope curves evaluate to their defining points.
func TestEnvelopeLevels(t *testing.T) {
	d := sim.Duration(1000)
	diurnal := Envelope{Kind: EnvDiurnal, Level: 0.2, Peak: 0.8, Period: 100}
	if got := diurnal.level(0, d); got != 0.2 {
		t.Errorf("diurnal trough = %v", got)
	}
	if got := diurnal.level(50, d); got != 0.8 {
		t.Errorf("diurnal peak = %v", got)
	}
	incast := Envelope{Kind: EnvIncast, Level: 0.3, Peak: 1, Period: 100, Burst: 25}
	if got := incast.level(10, d); got != 1 {
		t.Errorf("incast in burst = %v", got)
	}
	if got := incast.level(30, d); got != 0.3 {
		t.Errorf("incast out of burst = %v", got)
	}
	ramp := Envelope{Kind: EnvRamp, Level: 0.25, Peak: 0.75, Period: 0}
	if got := ramp.level(0, d); got != 0.25 {
		t.Errorf("ramp start = %v", got)
	}
	if got := ramp.level(500, d); got != 0.5 {
		t.Errorf("ramp middle = %v", got)
	}
	if got := ramp.level(d, d); got != 0.75 {
		t.Errorf("ramp end = %v", got)
	}
	step := Envelope{Kind: EnvStep, Level: 0.4, Peak: 0.9}
	if got := step.level(499, d); got != 0.4 {
		t.Errorf("step low = %v", got)
	}
	if got := step.level(500, d); got != 0.9 {
		t.Errorf("step high = %v", got)
	}
}

// The compiled shaper stretches gaps by the reciprocal level, holds
// the last phase's final level past the horizon, and returns the base
// gap untouched at full load.
func TestShaperGap(t *testing.T) {
	s := &Scenario{
		Name: "g", Seed: 1, Interleave: trace.RR1, Scale: 0.5,
		Classes: []Class{{Name: "c", Benchmark: workload.Iperf3, Tenants: 1}},
		Phases: []Phase{
			{Name: "half", Dur: 1000, Env: Envelope{Kind: EnvFlat, Level: 0.5}},
			{Name: "full", Dur: 1000, Env: Envelope{Kind: EnvFlat, Level: 1}},
			{Name: "ramp", Dur: 1000, Env: Envelope{Kind: EnvRamp, Level: 1, Peak: 0.25}},
		},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Duration(100)
	if got := c.Shaper.Gap(base, 0); got != 200 {
		t.Errorf("half-load gap = %v, want 200", got)
	}
	if got := c.Shaper.Gap(base, 1500); got != base {
		t.Errorf("full-load gap = %v, want %v", got, base)
	}
	// Past the horizon the tail holds the ramp's end level (0.25).
	if got := c.Shaper.Gap(base, 10_000); got != 400 {
		t.Errorf("tail gap = %v, want 400", got)
	}
	if at, ok := c.PhaseStart("ramp"); !ok || at != 2000 {
		t.Errorf("PhaseStart(ramp) = %v, %v", at, ok)
	}
	if _, ok := c.PhaseStart("nope"); ok {
		t.Error("PhaseStart accepted an unknown phase")
	}
}

// Plan composition is deterministic, time-sorted, anchored to the
// overlay's phase window, and targeted inside the overlay's class
// range.
func TestComposePlan(t *testing.T) {
	s := mustByName(t, "storm")
	c1, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.Plan, c2.Plan) {
		t.Fatal("two compiles produced different plans")
	}
	wantEvents := 0
	for _, ov := range s.Overlays {
		wantEvents += ov.Events
	}
	if len(c1.Plan.Events) != wantEvents {
		t.Fatalf("plan has %d events, want %d", len(c1.Plan.Events), wantEvents)
	}
	start, _ := c1.PhaseStart("peak")
	end := start + s.Phases[1].Dur
	lo, hi, _ := c1.ClassRange("tenant")
	for i, ev := range c1.Plan.Events {
		if i > 0 && ev.At < c1.Plan.Events[i-1].At {
			t.Fatalf("event %d out of order", i)
		}
		if sim.Duration(ev.At) <= start || sim.Duration(ev.At) >= end {
			t.Fatalf("event %d at %v outside peak window [%v, %v]", i, ev.At, start, end)
		}
		if ev.Kind == fault.InvalidateTenant && (ev.SID < lo || ev.SID > hi) {
			t.Fatalf("event %d targets SID %d outside class range [%d, %d]", i, ev.SID, lo, hi)
		}
	}
	// A different seed moves the targets.
	alt := mustByName(t, "storm")
	alt.Seed++
	c3, err := alt.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c1.Plan.Events, c3.Plan.Events) {
		t.Fatal("seed change did not move storm targets")
	}
}

func TestClassRange(t *testing.T) {
	c, err := mustByName(t, "noisy-neighbor").Compile()
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := c.ClassRange("victim"); !ok || lo != 1 || hi != 12 {
		t.Errorf("victim range = [%d, %d] %v", lo, hi, ok)
	}
	if lo, hi, ok := c.ClassRange("bully"); !ok || lo != 13 || hi != 16 {
		t.Errorf("bully range = [%d, %d] %v", lo, hi, ok)
	}
	if lo, hi, ok := c.ClassRange(""); !ok || lo != 1 || hi != 16 {
		t.Errorf("whole-population range = [%d, %d] %v", lo, hi, ok)
	}
	if _, _, ok := c.ClassRange("nope"); ok {
		t.Error("ClassRange accepted an unknown class")
	}
}

// A compiled scenario's stream and materialized trace are the same
// packet sequence — the equivalence every execution mode relies on.
func TestStreamMatchesMaterialize(t *testing.T) {
	c, err := mustByName(t, "noisy-neighbor").WithScale(0.02).Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	var pkts []workload.Packet
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		pkts = append(pkts, p)
	}
	if !reflect.DeepEqual(pkts, tr.Packets) {
		t.Fatalf("stream yielded %d packets, materialized %d (or contents differ)", len(pkts), len(tr.Packets))
	}
	if !reflect.DeepEqual(tr.Classes, src.Meta().Classes) {
		t.Fatalf("materialized classes %+v != stream classes %+v", tr.Classes, src.Meta().Classes)
	}
}

// Apply layers exactly the scenario's shaper and plan onto a design
// config and leaves everything else alone.
func TestApply(t *testing.T) {
	storm, err := mustByName(t, "storm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := core.HyperTRIOConfig()
	got := storm.Apply(base)
	if got.Shaper != core.ArrivalShaper(storm.Shaper) {
		t.Error("Apply did not install the shaper")
	}
	if got.Fault != storm.Plan {
		t.Error("Apply did not install the plan")
	}
	if got.DevTLB != base.DevTLB || got.PTBEntries != base.PTBEntries {
		t.Error("Apply touched design structure")
	}
	// A calm scenario leaves an externally scripted plan in place and
	// installs no shaper for flat-full-load phases.
	calm, err := mustByName(t, "noisy-neighbor").Compile()
	if err != nil {
		t.Fatal(err)
	}
	ext := &fault.Plan{Seed: 1, Retry: fault.DefaultRetryPolicy()}
	base.Fault = ext
	got = calm.Apply(base)
	if got.Fault != ext {
		t.Error("calm Apply dropped the external plan")
	}
	if got.Shaper != nil {
		t.Error("flat-full-load scenario installed a shaper")
	}
}

var _ core.ArrivalShaper = (*Shaper)(nil)

var _ trace.Source = (*trace.Stream)(nil)

// SID range bookkeeping stays consistent with mem.SID arithmetic.
func TestClassRangeSIDType(t *testing.T) {
	c, err := mustByName(t, "sid-flood").Compile()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := c.ClassRange("flood")
	if !ok || hi-lo+1 != mem.SID(2) {
		t.Fatalf("flood range [%d, %d] %v", lo, hi, ok)
	}
}
