// Package obs is the simulator's observability layer: a metrics
// registry of named counters/gauges/histograms that every model
// component publishes into, an NDJSON event tracer fed by model-level
// trace points and an optional probe on the event kernel, and a
// periodic time-series sampler that records bandwidth and structure
// occupancy over simulated time.
//
// Design rules:
//
//   - Zero cost when disabled. Each component counts into plain uint64
//     fields of its own Stats struct (histograms are Histogram cells);
//     incrementing one is an ordinary integer add whether or not a
//     Registry has named it. Trace points are nil-guarded at every call
//     site, and the sampler schedules no events unless enabled.
//   - Determinism is preserved. Observability only reads model state;
//     simulation outcomes are byte-identical with it on or off
//     (internal/core pins this with a regression test).
//   - One count per event, kept in one place: a component's Stats()
//     returns a copy of its counts with the derived fields (a cache's
//     misses, the prefetch unit's served count) filled in, and the
//     registry reads the same counts by name.
package obs

import "hypertrio/internal/sim"

// Options selects which observability features a simulation attaches.
// A nil *Options means everything is off.
type Options struct {
	// Tracer receives model-level trace events (arrival, drop, retry,
	// DevTLB hit/miss, walk start/end, prefetch issue/fill/hit) as
	// NDJSON. Nil disables tracing.
	//
	// A Tracer is not safe for concurrent use: attach one only to a
	// single simulation at a time (the worker pool in internal/runner
	// runs cells concurrently and therefore only uses sampling, which
	// keeps all state per-System).
	Tracer *Tracer
	// EngineEvents additionally probes the event kernel itself,
	// emitting sched/fire events for every engine event. Very
	// verbose; requires Tracer. The probe only observes: the run fires
	// the same events, and a blocked link's dead slots are still
	// skipped in one step.
	EngineEvents bool
	// SampleEvery enables the periodic time-series sampler at this
	// interval in simulated time; 0 disables sampling. The resulting
	// Series rides on core.Result.
	SampleEvery sim.Duration
}
