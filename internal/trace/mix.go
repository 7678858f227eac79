package trace

import (
	"fmt"

	"hypertrio/internal/workload"
)

// TenantClass is the identity of one class inside a mixed tenant
// population: a contiguous SID range sharing one workload profile and
// one arbitration weight. Classes are carried on Meta so the
// performance model can build class-correct address spaces and report
// per-class results without re-deriving the partition.
type TenantClass struct {
	Name    string
	Profile workload.Profile
	Tenants int
	// Weight is the class's arbitration weight: a weight-w tenant gets w
	// consecutive burst slots per round-robin turn (or w-proportional
	// probability under random interleave). Weight 0 means 1.
	Weight int
}

// ClassSpec describes one class of a mixed population for construction:
// the class identity plus its budget scale. Scale multiplies the
// per-tenant Table III request budgets; a heavy-hitter class pairs a
// large Weight with a proportionally larger Scale so the edge-effect
// truncation (first exhausted tenant ends the stream) does not cut the
// run to 1/weight of its intended length.
type ClassSpec struct {
	Name    string
	Profile workload.Profile
	Tenants int
	Weight  int
	Scale   float64
}

// maxClassScale bounds a class's budget scale: the largest a valid
// scenario compiles to (scenario scale 1 x class scale 64 x weight 64).
const maxClassScale = 64 * 64

// MixConfig drives NewMixStream / ConstructMix: a seeded, deterministic
// composition of tenant classes under one interleave discipline. SIDs
// are assigned contiguously in class order starting at 1.
type MixConfig struct {
	Classes    []ClassSpec
	Interleave Interleave
	Seed       int64
	// RNG selects the per-tenant random-source implementation, exactly as
	// in Config (CompactRNG for million-tenant streaming).
	RNG workload.RNG
}

// TotalTenants returns the population size across all classes.
func (c MixConfig) TotalTenants() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.Tenants
	}
	return n
}

func (c MixConfig) validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("trace: mix needs at least one class")
	}
	if err := c.Interleave.Validate(); err != nil {
		return err
	}
	for i, cl := range c.Classes {
		if cl.Tenants <= 0 {
			return fmt.Errorf("trace: mix class %d (%s): tenants must be positive, got %d", i, cl.Name, cl.Tenants)
		}
		if cl.Weight < 0 {
			return fmt.Errorf("trace: mix class %d (%s): weight must be >= 0, got %d", i, cl.Name, cl.Weight)
		}
		if !(cl.Scale > 0 && cl.Scale <= maxClassScale) {
			return fmt.Errorf("trace: mix class %d (%s): scale must be in (0,%d], got %v", i, cl.Name, maxClassScale, cl.Scale)
		}
		if !cl.Profile.Kind.Known() {
			return fmt.Errorf("trace: mix class %d (%s): unknown benchmark %v", i, cl.Name, cl.Profile.Kind)
		}
		if err := cl.Profile.Validate(); err != nil {
			return fmt.Errorf("trace: mix class %d (%s): %w", i, cl.Name, err)
		}
	}
	return checkRNG(c.RNG, c.TotalTenants())
}

// NewMixStream validates the mix and builds its online source: the
// multi-class generalization of NewStream, with the same edge-effect
// truncation (the first exhausted tenant — in any class — ends the
// stream) and a weighted arbiter. Meta's Benchmark/Scale/Profile
// describe the first class (the population lead); Meta.Classes carries
// the full partition, which class-aware consumers use instead.
func NewMixStream(c MixConfig) (*Stream, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	lead := c.Classes[0]
	meta := Meta{
		Benchmark:  lead.Profile.Kind,
		Interleave: c.Interleave,
		Tenants:    c.TotalTenants(),
		Seed:       c.Seed,
		Scale:      lead.Scale,
		Profile:    lead.Profile,
	}
	for _, cl := range c.Classes {
		meta.Classes = append(meta.Classes, TenantClass{Name: cl.Name, Profile: cl.Profile, Tenants: cl.Tenants, Weight: max(cl.Weight, 1)})
	}
	return newStream(c, meta), nil
}

// ConstructMix materializes a mixed-population trace by draining its
// stream, so online and materialized mixes agree bit-for-bit by
// construction (the same contract Construct has with NewStream).
func ConstructMix(c MixConfig) (*Trace, error) { return drain(NewMixStream(c)) }
