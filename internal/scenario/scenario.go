// Package scenario is the production-traffic scenario library: a
// composable, seeded DSL that layers time-varying load shaping and
// adversarial tenant behavior on top of the workload generators and
// fault plans. A Scenario is a deterministic composition of
//
//   - tenant classes: per-class workload mixes over contiguous SID
//     ranges (built by trace.NewMixStream, the same Stream a uniform
//     trace uses, so scenarios stream at 10⁶ tenants in O(tenants)
//     memory),
//   - adversary roles: a noisy-neighbor heavy-hitter that over-occupies
//     arbitration slots, or a SID-flood thrasher whose access pattern
//     sweeps the shared IOTLB,
//   - phases with load envelopes: diurnal curves, incast microbursts,
//     ramps and steps modulating the packet inter-arrival gap
//     (core.ArrivalShaper), and
//   - fault overlays: invalidation/shootdown/flush/walker-fault storms
//     and tenant churn anchored to a phase (compiled into one
//     fault.Plan).
//
// Scenarios serialize as JSON (schema "hypertrio-scenario/1") and
// compile (Compile) into the runnable pieces. Everything downstream of
// the seed is deterministic: the same scenario yields byte-identical
// results from a materialized trace and from a stream — the same
// contract the quick-suite golden manifest pins.
package scenario

import (
	"fmt"
	"unicode/utf8"

	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Role is a class's adversarial behavior.
type Role uint8

const (
	// RoleNone is a well-behaved tenant class.
	RoleNone Role = iota
	// RoleNoisyNeighbor is a heavy-hitter class: its tenants take a
	// default arbitration weight of 8 (eight consecutive bursts per
	// round-robin turn), crowding the link and the shared translation
	// structures. Budgets scale with the weight so the edge-effect
	// truncation does not cut the run short.
	RoleNoisyNeighbor
	// RoleSIDFlood is an IOTLB thrasher: its tenants run FloodProfile —
	// thousands of 4 KB buffers, near-random page jumps, unmap churn
	// every couple of packets — sweeping the shared translation caches
	// with single-use entries.
	RoleSIDFlood

	roleCount // sentinel
)

var roleNames = [...]string{
	RoleNone:          "",
	RoleNoisyNeighbor: "noisy-neighbor",
	RoleSIDFlood:      "sid-flood",
}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// RoleFromString parses the JSON name of a role ("" is RoleNone).
func RoleFromString(s string) (Role, error) {
	for r, name := range roleNames {
		if name == s {
			return Role(r), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown role %q", s)
}

// defaultWeight is the role's arbitration weight when the class leaves
// Weight zero.
func (r Role) defaultWeight() int {
	if r == RoleNoisyNeighbor {
		return 8
	}
	return 1
}

// Class is one tenant class of a scenario: a contiguous SID range
// running one benchmark under one role.
type Class struct {
	Name      string
	Benchmark workload.Kind
	Tenants   int
	Role      Role
	// Weight overrides the role's default arbitration weight (0 keeps
	// the default: 8 for noisy-neighbor, 1 otherwise).
	Weight int
	// Scale multiplies the scenario-wide Scale for this class (0 means
	// 1.0). The arbitration weight is folded into the effective budget
	// scale at compile time, so heavier classes last the whole run.
	Scale float64
}

// weight returns the class's effective arbitration weight.
func (c Class) weight() int {
	if c.Weight > 0 {
		return c.Weight
	}
	return c.Role.defaultWeight()
}

// scale returns the class's scale multiplier (zero → 1).
func (c Class) scale() float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return 1
}

// profile returns the workload profile the class's role implies.
func (c Class) profile() workload.Profile {
	if c.Role == RoleSIDFlood {
		return FloodProfile(c.Benchmark)
	}
	return workload.ProfileFor(c.Benchmark)
}

// FloodProfile is the SID-flood adversary's calibration: the
// benchmark's budget bounds over a 4 KB-buffer pool of 4096 pages with
// near-random jumps and two-packet runs, so nearly every data access
// is a fresh page and the driver unmaps at the highest rate the
// generator can express. One such tenant pushes a single-use entry
// stream through every shared translation structure.
func FloodProfile(k workload.Kind) workload.Profile {
	p := workload.ProfileFor(k)
	p.SmallData = true
	p.DataPages = 4096
	p.Streams = 8
	p.BackgroundChance = 128
	p.RunLength = 2
	p.JumpChance = 255
	p.InitPages = 0
	p.InitTouches = 0
	return p
}

// Phase is one stretch of the scenario's timeline under one load
// envelope. Phases play in order; the scenario's horizon is the sum of
// their durations (load past the horizon holds the last phase's final
// level, should service lag behind arrival).
type Phase struct {
	Name string
	Dur  sim.Duration
	Env  Envelope
}

// Overlay schedules a storm of fault events across one phase's window,
// optionally targeted at one class's SID range.
type Overlay struct {
	// Phase anchors the overlay to the named phase's [start, end) span;
	// events spread evenly across it.
	Phase string
	Kind  OverlayKind
	// Events is how many storm events fire within the phase.
	Events int
	// Class targets the named class's SID range ("" draws SIDs from the
	// whole population). Per-event SIDs are drawn from the scenario
	// seed, so the storm is deterministic.
	Class string
}

// OverlayKind selects the storm's fault event type.
type OverlayKind uint8

const (
	// OverlayInvalidationStorm fires page invalidations against the
	// targets' hot ring pages — each victim's next ring access re-walks.
	OverlayInvalidationStorm OverlayKind = iota
	// OverlayShootdownStorm fires tenant-wide invalidations (domain
	// shootdowns): every cached object of the drawn SID drops.
	OverlayShootdownStorm
	// OverlayWalkerFaultStorm arms walker faults: page-table walks
	// around each event back off and retry per the plan's retry policy.
	OverlayWalkerFaultStorm
	// OverlayFlushStorm fires global flushes of every translation cache.
	OverlayFlushStorm
	// OverlayChurn detaches the drawn tenant and re-attaches it half an
	// event-interval later (SID teardown / re-attach pairs).
	OverlayChurn

	overlayKindCount // sentinel
)

var overlayKindNames = [...]string{
	OverlayInvalidationStorm: "invalidation_storm",
	OverlayShootdownStorm:    "shootdown_storm",
	OverlayWalkerFaultStorm:  "walker_fault_storm",
	OverlayFlushStorm:        "flush_storm",
	OverlayChurn:             "churn",
}

func (k OverlayKind) String() string {
	if int(k) < len(overlayKindNames) {
		return overlayKindNames[k]
	}
	return fmt.Sprintf("OverlayKind(%d)", uint8(k))
}

// OverlayKindFromString parses the JSON name of an overlay kind.
func OverlayKindFromString(s string) (OverlayKind, error) {
	for k, name := range overlayKindNames {
		if name == s {
			return OverlayKind(k), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown overlay kind %q", s)
}

// Scenario is one composed production-traffic scenario. The zero value
// is invalid; build one in code or decode it from JSON (ReadScenario).
type Scenario struct {
	Name string
	// Seed drives every random draw the scenario makes: per-tenant
	// budgets and access patterns, the interleave, and storm targeting.
	Seed       int64
	Interleave trace.Interleave
	// Scale shrinks every class's Table III request budget, exactly as
	// trace.Config.Scale does; per-class Scale multiplies it.
	Scale float64
	// CompactRNG selects the 8-byte-per-tenant random state for
	// million-tenant streaming runs (different, still deterministic,
	// sequences).
	CompactRNG bool

	Classes  []Class
	Phases   []Phase
	Overlays []Overlay
}

// Hard bounds on scenario shape: generous for real use, tight enough
// that a hostile JSON document cannot demand pathological allocations
// or multi-day storms from whoever compiles it.
const (
	maxClasses      = 64
	maxPhases       = 256
	maxOverlays     = 256
	maxOverlayFires = 1 << 20
	maxNameLen      = 128
	maxWeight       = 64
	maxClassScale   = 64
	maxHorizon      = sim.Duration(3600) * sim.Second
)

// validName screens scenario-authored identifiers: bounded length,
// valid UTF-8 (a name that JSON-escapes into replacement runes would
// break round-trip identity).
func validName(s string) error {
	if len(s) > maxNameLen {
		return fmt.Errorf("name longer than %d bytes", maxNameLen)
	}
	if !utf8.ValidString(s) {
		return fmt.Errorf("name is not valid UTF-8")
	}
	return nil
}

// Validate reports structural errors: bad shapes, out-of-range knobs,
// dangling phase/class references, invalid envelope parameters.
func (s *Scenario) Validate() error {
	if err := validName(s.Name); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("scenario: scale must be in (0,1], got %v", s.Scale)
	}
	if s.Interleave.Burst <= 0 || s.Interleave.Burst > 1<<16 {
		return fmt.Errorf("scenario: interleave burst must be in 1..65536, got %d", s.Interleave.Burst)
	}
	if len(s.Classes) == 0 || len(s.Classes) > maxClasses {
		return fmt.Errorf("scenario: need 1..%d classes, got %d", maxClasses, len(s.Classes))
	}
	total := 0
	classNames := make(map[string]bool, len(s.Classes))
	for i, cl := range s.Classes {
		if err := validName(cl.Name); err != nil {
			return fmt.Errorf("scenario: class %d: %w", i, err)
		}
		if cl.Name == "" {
			return fmt.Errorf("scenario: class %d: name required", i)
		}
		if classNames[cl.Name] {
			return fmt.Errorf("scenario: duplicate class name %q", cl.Name)
		}
		classNames[cl.Name] = true
		if cl.Benchmark > workload.Websearch {
			return fmt.Errorf("scenario: class %q: unknown benchmark %d", cl.Name, cl.Benchmark)
		}
		if cl.Role >= roleCount {
			return fmt.Errorf("scenario: class %q: unknown role %d", cl.Name, cl.Role)
		}
		if cl.Tenants <= 0 || cl.Tenants > trace.MaxTenants {
			return fmt.Errorf("scenario: class %q: tenants must be in 1..%d, got %d", cl.Name, trace.MaxTenants, cl.Tenants)
		}
		if cl.Weight < 0 || cl.Weight > maxWeight {
			return fmt.Errorf("scenario: class %q: weight must be in 0..%d, got %d", cl.Name, maxWeight, cl.Weight)
		}
		if cl.Scale != 0 && !(cl.Scale > 0 && cl.Scale <= maxClassScale) {
			return fmt.Errorf("scenario: class %q: scale must be 0 or in (0,%d], got %v", cl.Name, maxClassScale, cl.Scale)
		}
		total += cl.Tenants
	}
	if total > trace.MaxTenants {
		return fmt.Errorf("scenario: %d tenants across classes exceeds the %d cap", total, trace.MaxTenants)
	}
	if len(s.Phases) == 0 || len(s.Phases) > maxPhases {
		return fmt.Errorf("scenario: need 1..%d phases, got %d", maxPhases, len(s.Phases))
	}
	var horizon sim.Duration
	phaseNames := make(map[string]bool, len(s.Phases))
	for i, ph := range s.Phases {
		if err := validName(ph.Name); err != nil {
			return fmt.Errorf("scenario: phase %d: %w", i, err)
		}
		if ph.Name == "" {
			return fmt.Errorf("scenario: phase %d: name required", i)
		}
		if phaseNames[ph.Name] {
			return fmt.Errorf("scenario: duplicate phase name %q", ph.Name)
		}
		phaseNames[ph.Name] = true
		if !(ph.Dur > 0 && ph.Dur <= maxHorizon) {
			return fmt.Errorf("scenario: phase %q: duration must be in (0, %v], got %v", ph.Name, maxHorizon, ph.Dur)
		}
		horizon += ph.Dur
		if err := ph.Env.validate(); err != nil {
			return fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
		}
	}
	if horizon > maxHorizon {
		return fmt.Errorf("scenario: horizon %v exceeds the %v cap", horizon, maxHorizon)
	}
	if len(s.Overlays) > maxOverlays {
		return fmt.Errorf("scenario: at most %d overlays, got %d", maxOverlays, len(s.Overlays))
	}
	fires := 0
	for i, ov := range s.Overlays {
		if ov.Kind >= overlayKindCount {
			return fmt.Errorf("scenario: overlay %d: unknown kind %d", i, ov.Kind)
		}
		if !phaseNames[ov.Phase] {
			return fmt.Errorf("scenario: overlay %d (%s): unknown phase %q", i, ov.Kind, ov.Phase)
		}
		if ov.Class != "" && !classNames[ov.Class] {
			return fmt.Errorf("scenario: overlay %d (%s): unknown class %q", i, ov.Kind, ov.Class)
		}
		if ov.Events <= 0 || ov.Events > maxOverlayFires {
			return fmt.Errorf("scenario: overlay %d (%s): events must be in 1..%d, got %d", i, ov.Kind, maxOverlayFires, ov.Events)
		}
		fires += ov.Events
	}
	if fires > maxOverlayFires {
		return fmt.Errorf("scenario: %d overlay events across overlays exceeds the %d cap", fires, maxOverlayFires)
	}
	return nil
}

// clone returns a deep copy (slices unshared).
func (s *Scenario) clone() *Scenario {
	n := *s
	n.Classes = append([]Class(nil), s.Classes...)
	n.Phases = append([]Phase(nil), s.Phases...)
	n.Overlays = append([]Overlay(nil), s.Overlays...)
	return &n
}

// Neutral returns the scenario's no-adversary twin: every role and
// weight reset, every envelope flattened to its baseline level, every
// overlay removed. Signal tests run the adversarial scenario against
// its neutral twin — the neutral run is the control that proves a
// pinned signal comes from the adversary, not the population shape.
func (s *Scenario) Neutral() *Scenario {
	n := s.clone()
	n.Name = s.Name + "-neutral"
	for i := range n.Classes {
		n.Classes[i].Role = RoleNone
		n.Classes[i].Weight = 0
	}
	for i := range n.Phases {
		n.Phases[i].Env = Envelope{Kind: EnvFlat, Level: n.Phases[i].Env.Level}
	}
	n.Overlays = nil
	return n
}

// WithoutOverlays returns a twin that keeps classes and envelopes but
// drops every fault overlay — the control for storm scenarios, where
// the signal under test is the fault storm's cost at equal load.
func (s *Scenario) WithoutOverlays() *Scenario {
	n := s.clone()
	n.Name = s.Name + "-calm"
	n.Overlays = nil
	return n
}

// WithScale returns a twin with every extent multiplied by f: the
// budget scale, phase durations, envelope periods/bursts, and overlay
// event counts (floored at one). Experiments use it to shrink a
// full-scale scenario into its quick-mode variant without changing its
// structure.
func (s *Scenario) WithScale(f float64) *Scenario {
	n := s.clone()
	n.Scale *= f
	for i := range n.Phases {
		ph := &n.Phases[i]
		ph.Dur = scaleDur(ph.Dur, f)
		ph.Env.Period = scaleDur(ph.Env.Period, f)
		ph.Env.Burst = scaleDur(ph.Env.Burst, f)
	}
	for i := range n.Overlays {
		ev := int(float64(n.Overlays[i].Events)*f + 0.5)
		if ev < 1 {
			ev = 1
		}
		n.Overlays[i].Events = ev
	}
	return n
}

func scaleDur(d sim.Duration, f float64) sim.Duration {
	if d <= 0 {
		return d
	}
	n := sim.Duration(float64(d)*f + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// TotalTenants returns the population size across classes.
func (s *Scenario) TotalTenants() int {
	n := 0
	for _, cl := range s.Classes {
		n += cl.Tenants
	}
	return n
}
