package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Schema names the JSON scenario format (cmd/hypersio -scenario,
// cmd/scenariolint). Bump the suffix on any incompatible change;
// ReadScenario rejects other schemas.
const Schema = "hypertrio-scenario/1"

// The on-disk shape: kinds and roles by name, durations as integer
// picoseconds (sim.Duration verbatim — exact round-trip, no float
// rounding at any magnitude), floats only where the model itself is a
// float (scale, envelope levels). Writable by hand, stable across
// internal refactors.
type scenarioDoc struct {
	Schema     string       `json:"schema"`
	Name       string       `json:"name"`
	Seed       int64        `json:"seed"`
	Interleave string       `json:"interleave"`
	Scale      float64      `json:"scale"`
	CompactRNG bool         `json:"compact_rng,omitempty"`
	Classes    []classDoc   `json:"classes"`
	Phases     []phaseDoc   `json:"phases"`
	Overlays   []overlayDoc `json:"overlays,omitempty"`
}

type classDoc struct {
	Name      string  `json:"name"`
	Benchmark string  `json:"benchmark"`
	Tenants   int     `json:"tenants"`
	Role      string  `json:"role,omitempty"`
	Weight    int     `json:"weight,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
}

type phaseDoc struct {
	Name  string `json:"name"`
	DurPs int64  `json:"dur_ps"`
	Env   envDoc `json:"env"`
}

type envDoc struct {
	Kind     string  `json:"kind"`
	Level    float64 `json:"level"`
	Peak     float64 `json:"peak,omitempty"`
	PeriodPs int64   `json:"period_ps,omitempty"`
	BurstPs  int64   `json:"burst_ps,omitempty"`
}

type overlayDoc struct {
	Phase  string `json:"phase"`
	Kind   string `json:"kind"`
	Events int    `json:"events"`
	Class  string `json:"class,omitempty"`
}

// ReadScenario decodes (strictly — unknown fields and anything after the
// document are errors) and validates a JSON scenario.
func ReadScenario(r io.Reader) (*Scenario, error) {
	var doc scenarioDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("scenario: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: data after the JSON document")
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("scenario: schema %q, want %q", doc.Schema, Schema)
	}
	iv, err := trace.ParseInterleave(doc.Interleave)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s := &Scenario{
		Name:       doc.Name,
		Seed:       doc.Seed,
		Interleave: iv,
		Scale:      doc.Scale,
		CompactRNG: doc.CompactRNG,
	}
	for i, cd := range doc.Classes {
		kind, err := workload.ParseKind(cd.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("scenario: class %d: %w", i, err)
		}
		role, err := RoleFromString(cd.Role)
		if err != nil {
			return nil, fmt.Errorf("scenario: class %d: %w", i, err)
		}
		s.Classes = append(s.Classes, Class{
			Name: cd.Name, Benchmark: kind, Tenants: cd.Tenants,
			Role: role, Weight: cd.Weight, Scale: cd.Scale,
		})
	}
	for i, pd := range doc.Phases {
		kind, err := EnvelopeKindFromString(pd.Env.Kind)
		if err != nil {
			return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
		}
		s.Phases = append(s.Phases, Phase{
			Name: pd.Name,
			Dur:  sim.Duration(pd.DurPs),
			Env: Envelope{
				Kind:   kind,
				Level:  pd.Env.Level,
				Peak:   pd.Env.Peak,
				Period: sim.Duration(pd.Env.PeriodPs),
				Burst:  sim.Duration(pd.Env.BurstPs),
			},
		})
	}
	for i, od := range doc.Overlays {
		kind, err := OverlayKindFromString(od.Kind)
		if err != nil {
			return nil, fmt.Errorf("scenario: overlay %d: %w", i, err)
		}
		s.Overlays = append(s.Overlays, Overlay{
			Phase: od.Phase, Kind: kind, Events: od.Events, Class: od.Class,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteJSON encodes the scenario in the on-disk format (indented, one
// schema header). Encoding is canonical: decode(WriteJSON(s)) yields a
// Scenario equal to s, and WriteJSON of that decodes byte-identically —
// the fuzz target pins both directions.
func (s *Scenario) WriteJSON(w io.Writer) error {
	doc := scenarioDoc{
		Schema:     Schema,
		Name:       s.Name,
		Seed:       s.Seed,
		Interleave: s.Interleave.String(),
		Scale:      s.Scale,
		CompactRNG: s.CompactRNG,
		Classes:    []classDoc{},
		Phases:     []phaseDoc{},
	}
	for _, cl := range s.Classes {
		doc.Classes = append(doc.Classes, classDoc{
			Name: cl.Name, Benchmark: cl.Benchmark.String(), Tenants: cl.Tenants,
			Role: cl.Role.String(), Weight: cl.Weight, Scale: cl.Scale,
		})
	}
	for _, ph := range s.Phases {
		doc.Phases = append(doc.Phases, phaseDoc{
			Name:  ph.Name,
			DurPs: int64(ph.Dur),
			Env: envDoc{
				Kind:     ph.Env.Kind.String(),
				Level:    ph.Env.Level,
				Peak:     ph.Env.Peak,
				PeriodPs: int64(ph.Env.Period),
				BurstPs:  int64(ph.Env.Burst),
			},
		})
	}
	for _, ov := range s.Overlays {
		doc.Overlays = append(doc.Overlays, overlayDoc{
			Phase: ov.Phase, Kind: ov.Kind.String(), Events: ov.Events, Class: ov.Class,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
