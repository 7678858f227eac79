package obs

import "hypertrio/internal/sim"

// EngineProbe adapts a Tracer to the event kernel's sim.Probe hook,
// emitting one NDJSON line per engine event: sched when an event enters
// the queue, fire when it executes. Seq is
// the kernel's deterministic tie-break sequence number, so a trace can
// reconstruct exact firing order.
type EngineProbe struct{ T *Tracer }

var _ sim.Probe = EngineProbe{}

// OnSchedule records an event entering the queue for time at.
func (p EngineProbe) OnSchedule(at sim.Time, seq uint64) {
	p.T.Emit(Event{T: int64(at), Ev: "sched", Seq: seq})
}

// OnFire records an event beginning execution.
func (p EngineProbe) OnFire(at sim.Time, seq uint64) {
	p.T.Emit(Event{T: int64(at), Ev: "fire", Seq: seq})
}
