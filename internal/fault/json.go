package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
)

// PlanSchema names the JSON plan format (cmd/hypersio -faults). Bump the
// suffix on any incompatible change; ReadPlan rejects other schemas.
const PlanSchema = "hypertrio-faultplan/1"

// planDoc is the on-disk shape: times in nanoseconds, addresses in hex,
// kinds by name — writable by hand, stable across internal refactors.
type planDoc struct {
	Schema string     `json:"schema"`
	Seed   int64      `json:"seed,omitempty"`
	Retry  *retryDoc  `json:"retry,omitempty"`
	Events []eventDoc `json:"events"`
}

type retryDoc struct {
	MaxRetries   int     `json:"max_retries,omitempty"`
	BackoffNs    float64 `json:"backoff_ns,omitempty"`
	BackoffMaxNs float64 `json:"backoff_max_ns,omitempty"`
}

type eventDoc struct {
	AtNs   float64 `json:"at_ns"`
	Kind   string  `json:"kind"`
	SID    uint32  `json:"sid,omitempty"`
	IOVA   string  `json:"iova,omitempty"`
	Shift  uint8   `json:"shift,omitempty"`
	N      int     `json:"n,omitempty"`
	DurNs  float64 `json:"dur_ns,omitempty"`
	Silent bool    `json:"silent,omitempty"`
}

// maxPlanNs bounds every time in a JSON plan: 1000 s of simulated time,
// far past any run. Below it a picosecond count survives the trip to
// float nanoseconds and back exactly, so accepted plans round-trip.
const maxPlanNs = 1e12

// planNanos converts one time field, rejecting values outside
// [0, maxPlanNs].
func planNanos(field string, ns float64) (sim.Duration, error) {
	if !(ns >= 0 && ns <= maxPlanNs) {
		return 0, fmt.Errorf("%s %g outside [0, %g]", field, ns, maxPlanNs)
	}
	return sim.FromNanos(ns), nil
}

func parseIOVA(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
}

// ReadPlan decodes and validates a JSON plan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var doc planDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("fault: decoding plan: %w", err)
	}
	if doc.Schema != PlanSchema {
		return nil, fmt.Errorf("fault: plan schema %q, want %q", doc.Schema, PlanSchema)
	}
	p := &Plan{Seed: doc.Seed}
	if rd := doc.Retry; rd != nil {
		backoff, err := planNanos("backoff_ns", rd.BackoffNs)
		if err != nil {
			return nil, fmt.Errorf("fault: retry: %w", err)
		}
		backoffMax, err := planNanos("backoff_max_ns", rd.BackoffMaxNs)
		if err != nil {
			return nil, fmt.Errorf("fault: retry: %w", err)
		}
		p.Retry = RetryPolicy{MaxRetries: rd.MaxRetries, Backoff: backoff, BackoffMax: backoffMax}
	}
	for i, ed := range doc.Events {
		kind, err := KindFromString(ed.Kind)
		if err != nil {
			return nil, fmt.Errorf("fault: event %d: %w", i, err)
		}
		iova, err := parseIOVA(ed.IOVA)
		if err != nil {
			return nil, fmt.Errorf("fault: event %d: bad iova %q: %w", i, ed.IOVA, err)
		}
		at, err := planNanos("at_ns", ed.AtNs)
		if err != nil {
			return nil, fmt.Errorf("fault: event %d: %w", i, err)
		}
		dur, err := planNanos("dur_ns", ed.DurNs)
		if err != nil {
			return nil, fmt.Errorf("fault: event %d: %w", i, err)
		}
		p.Events = append(p.Events, Event{
			At:     sim.Time(0).Add(at),
			Kind:   kind,
			SID:    mem.SID(ed.SID),
			IOVA:   iova,
			Shift:  ed.Shift,
			N:      ed.N,
			Dur:    dur,
			Silent: ed.Silent,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteJSON encodes the plan in the on-disk format (indented, one schema
// header; round-trips through ReadPlan).
func (p *Plan) WriteJSON(w io.Writer) error {
	doc := planDoc{Schema: PlanSchema, Seed: p.Seed, Events: []eventDoc{}}
	if p.Retry != (RetryPolicy{}) {
		doc.Retry = &retryDoc{
			MaxRetries:   p.Retry.MaxRetries,
			BackoffNs:    p.Retry.Backoff.Nanoseconds(),
			BackoffMaxNs: p.Retry.BackoffMax.Nanoseconds(),
		}
	}
	for _, ev := range p.Events {
		ed := eventDoc{
			AtNs:   sim.Duration(ev.At).Nanoseconds(),
			Kind:   ev.Kind.String(),
			SID:    uint32(ev.SID),
			Shift:  ev.Shift,
			N:      ev.N,
			DurNs:  ev.Dur.Nanoseconds(),
			Silent: ev.Silent,
		}
		if ev.IOVA != 0 {
			ed.IOVA = "0x" + strconv.FormatUint(ev.IOVA, 16)
		}
		doc.Events = append(doc.Events, ed)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
