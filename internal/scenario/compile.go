package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"hypertrio/internal/core"
	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Compiled is a scenario resolved into its runnable pieces: the mixed
// tenant population, the load-envelope shaper, and the phase-anchored
// fault plan. A Compiled is read-only after Compile; its Shaper and
// Plan may be shared by any number of concurrently running systems.
type Compiled struct {
	Scenario *Scenario
	// Mix drives trace.NewMixStream / trace.ConstructMix.
	Mix trace.MixConfig
	// Shaper modulates arrivals; nil when every phase offers flat full
	// load (the constant-gap fast path).
	Shaper *Shaper
	// Plan is the composed fault script; nil without overlays, keeping
	// overlay-free scenarios byte-identical to fault-free builds.
	Plan *fault.Plan
	// Horizon is the sum of phase durations — the scenario's intended
	// timeline (service may drain past it when the run lags arrivals).
	Horizon sim.Duration

	starts []sim.Duration // per-phase start offsets

	matOnce sync.Once
	mat     *trace.Trace
	matErr  error
}

// stormSeed decorrelates storm targeting from the budget/interleave
// draws made with the scenario seed itself.
const stormSeed = 0x73_746f_726d // "storm"

// Compile validates the scenario and resolves it.
func (s *Scenario) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Scenario: s}

	// Tenant population: the arbitration weight folds into the class's
	// effective budget scale, so a weight-w class consuming slots w
	// times faster still lasts the whole run (the edge-effect
	// truncation fires when the first tenant of ANY class drains).
	c.Mix = trace.MixConfig{Interleave: s.Interleave, Seed: s.Seed}
	if s.CompactRNG {
		c.Mix.RNG = workload.CompactRNG
	}
	for _, cl := range s.Classes {
		w := cl.weight()
		c.Mix.Classes = append(c.Mix.Classes, trace.ClassSpec{
			Name:    cl.Name,
			Profile: cl.profile(),
			Tenants: cl.Tenants,
			Weight:  w,
			Scale:   s.Scale * cl.scale() * float64(w),
		})
	}

	// Timeline: phase spans and the compiled shaper. A scenario whose
	// every phase is flat at full load needs no shaper at all.
	c.starts = make([]sim.Duration, len(s.Phases))
	spans := make([]span, len(s.Phases))
	var at sim.Duration
	flatFull := true
	for i, ph := range s.Phases {
		c.starts[i] = at
		spans[i] = span{start: at, end: at + ph.Dur, env: ph.Env}
		at += ph.Dur
		if ph.Env.Kind != EnvFlat || ph.Env.Level < 1 {
			flatFull = false
		}
	}
	c.Horizon = at
	if !flatFull {
		last := spans[len(spans)-1]
		c.Shaper = &Shaper{
			spans: spans,
			tail:  clampLevel(last.env.level(last.end-last.start, last.end-last.start)),
		}
	}

	if len(s.Overlays) > 0 {
		plan, err := c.composePlan()
		if err != nil {
			return nil, err
		}
		c.Plan = plan
	}
	return c, nil
}

// phaseIndex resolves a phase name (validated upstream).
func (c *Compiled) phaseIndex(name string) int {
	for i, ph := range c.Scenario.Phases {
		if ph.Name == name {
			return i
		}
	}
	return -1
}

// ClassRange returns the named class's inclusive SID range; ok=false
// for unknown names. The empty name addresses the whole population.
func (c *Compiled) ClassRange(name string) (lo, hi mem.SID, ok bool) {
	if name == "" {
		return 1, mem.SID(c.Mix.TotalTenants()), true
	}
	at := 1
	for _, cl := range c.Scenario.Classes {
		if cl.Name == name {
			return mem.SID(at), mem.SID(at + cl.Tenants - 1), true
		}
		at += cl.Tenants
	}
	return 0, 0, false
}

// composePlan renders every overlay into fault events across its
// anchor phase's window and merges them into one time-sorted plan.
// Per-event target SIDs are drawn from the scenario seed, so the storm
// is part of the scenario's deterministic identity.
func (c *Compiled) composePlan() (*fault.Plan, error) {
	rng := rand.New(rand.NewSource(c.Scenario.Seed ^ stormSeed))
	var evs []fault.Event
	for i, ov := range c.Scenario.Overlays {
		pi := c.phaseIndex(ov.Phase)
		lo, hi, ok := c.ClassRange(ov.Class)
		if pi < 0 || !ok {
			return nil, fmt.Errorf("scenario: overlay %d: dangling reference", i)
		}
		start := c.starts[pi]
		dur := c.Scenario.Phases[pi].Dur
		step := dur / sim.Duration(ov.Events+1)
		if step < 1 {
			step = 1
		}
		for e := 0; e < ov.Events; e++ {
			at := sim.Time(start + step*sim.Duration(e+1))
			sid := lo + mem.SID(rng.Intn(int(hi-lo)+1))
			switch ov.Kind {
			case OverlayInvalidationStorm:
				evs = append(evs, fault.Event{
					At: at, Kind: fault.InvalidatePage, SID: sid,
					IOVA: workload.RingPageFor(sid), Shift: uint8(mem.PageShift),
				})
			case OverlayShootdownStorm:
				evs = append(evs, fault.Event{At: at, Kind: fault.InvalidateTenant, SID: sid})
			case OverlayWalkerFaultStorm:
				evs = append(evs, fault.Event{At: at, Kind: fault.WalkerFault, N: 8})
			case OverlayFlushStorm:
				evs = append(evs, fault.Event{At: at, Kind: fault.FlushAll})
			case OverlayChurn:
				evs = append(evs,
					fault.Event{At: at, Kind: fault.Detach, SID: sid},
					fault.Event{At: at + sim.Time(step/2), Kind: fault.Attach, SID: sid},
				)
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	plan := &fault.Plan{Seed: c.Scenario.Seed, Retry: fault.DefaultRetryPolicy(), Events: evs}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: composed plan invalid: %w", err)
	}
	return plan, nil
}

// Stream returns a fresh online source over the scenario's population
// (O(tenants) memory; single-consumer, so every cell gets its own).
func (c *Compiled) Stream() (*trace.Stream, error) {
	return trace.NewMixStream(c.Mix)
}

// Materialize constructs (once) and returns the scenario's trace. The
// trace is immutable and shared — the same contract runner's trace
// cache relies on.
func (c *Compiled) Materialize() (*trace.Trace, error) {
	c.matOnce.Do(func() {
		c.mat, c.matErr = trace.ConstructMix(c.Mix)
	})
	return c.mat, c.matErr
}

// Apply composes the scenario onto a design configuration: the load
// shaper and the composed fault plan. The design's own structure
// (caches, PTB, prefetch) is untouched, so one scenario sweeps
// identically across Base/HyperTRIO/any future design. A scenario
// without overlays leaves the config's own Fault script in place, so a
// calm scenario composes with an externally scripted plan.
func (c *Compiled) Apply(base core.Config) core.Config {
	if c.Shaper != nil {
		base.Shaper = c.Shaper
	}
	if c.Plan != nil {
		base.Fault = c.Plan
	}
	return base
}

// PhaseStart returns the named phase's start offset on the timeline.
func (c *Compiled) PhaseStart(name string) (sim.Duration, bool) {
	if i := c.phaseIndex(name); i >= 0 {
		return c.starts[i], true
	}
	return 0, false
}
