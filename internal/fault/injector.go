package fault

import (
	"fmt"

	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
)

// Target is the running system as the injector sees it: the invalidation
// datapath (core.System over pipeline.Chain's invalidation methods) plus
// the page tables a Remap rewrites. Every method applies at the instant the
// scripted event fires.
type Target interface {
	// InvalidatePage propagates one page's invalidation through every
	// stage (the driver-unmap path).
	InvalidatePage(sid mem.SID, iova uint64, shift uint8)
	// InvalidateTenant drops every stage's cached state for one SID,
	// returning how many cached objects were dropped.
	InvalidateTenant(sid mem.SID) int
	// FlushAll empties every translation cache, returning the drop count.
	FlushAll() int
	// Remap rewrites the page's guest mapping to a fresh physical frame.
	Remap(sid mem.SID, iova uint64, shift uint8) error
}

// pageKey identifies one page at its native granule for the injector's
// stale/re-walk tracking.
type pageKey struct {
	sid   mem.SID
	page  uint64
	shift uint8
}

func keyOf(sid mem.SID, iova uint64, shift uint8) pageKey {
	return pageKey{sid: sid, page: iova >> shift, shift: shift}
}

// Injector schedules a Plan's events into the sim.Engine (as typed
// events; the payload is the event's index) and applies them to the
// Target. It implements pipeline.FaultHook, so the chain consults it —
// nil-guarded — for walker faults, forced re-walks and stale hits.
//
// The injector exists only when a plan is loaded; a fault-free run never
// constructs one, keeping the hot path allocation- and branch-free.
type Injector struct {
	plan   *Plan
	target Target
	tracer *obs.Tracer
	retry  RetryPolicy

	// Walker-fault arming: attempts fault while either faultsLeft > 0
	// (count-armed, consumed per faulted attempt) or now < faultUntil
	// (window-armed).
	faultsLeft int
	faultUntil sim.Time

	// stale holds pages remapped silently — device-visible caches may
	// still serve the old frame until an invalidation closes the window.
	// rewalk holds pages whose next walk is a forced re-walk (remapped
	// or explicitly invalidated).
	stale  map[pageKey]struct{}
	rewalk map[pageKey]struct{}

	err error // first apply error (e.g. remapping an unmapped page), sticky

	// stats holds the live counts; Stats fills in the pending sets.
	stats Stats
}

// NewInjector binds a validated plan to a target. The tracer may be nil.
func NewInjector(p *Plan, target Target, tracer *obs.Tracer) (*Injector, error) {
	if p == nil {
		return nil, fmt.Errorf("fault: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("fault: nil target")
	}
	return &Injector{
		plan:   p,
		target: target,
		tracer: tracer,
		retry:  p.Retry.withDefaults(),
		stale:  make(map[pageKey]struct{}),
		rewalk: make(map[pageKey]struct{}),
	}, nil
}

// Start schedules every plan event into the engine. Call once, before
// the run begins (engine time zero).
func (in *Injector) Start(e *sim.Engine) {
	now := e.Now()
	for i := range in.plan.Events {
		delay := in.plan.Events[i].At.Sub(now)
		if delay < 0 {
			delay = 0
		}
		e.ScheduleEvent(delay, in, uint64(i))
	}
}

// HandleEvent fires one scripted event (sim.EventSink).
func (in *Injector) HandleEvent(e *sim.Engine, now sim.Time, payload uint64) {
	in.apply(now, in.plan.Events[uint32(payload)])
}

func (in *Injector) emit(now sim.Time, ev string, sid mem.SID, iova uint64, shift uint8, n int, d sim.Duration) {
	if in.tracer == nil {
		return
	}
	rec := obs.Event{T: int64(now), Ev: ev, SID: uint32(sid), Shift: shift, N: n, DurPs: int64(d)}
	if iova != 0 {
		rec.IOVA = obs.Hex(iova)
	}
	in.tracer.Emit(rec)
}

// apply executes one scripted event against the target at time now.
func (in *Injector) apply(now sim.Time, ev Event) {
	in.stats.Applied++
	switch ev.Kind {
	case InvalidatePage:
		in.invalidatePage(now, ev.SID, ev.IOVA, ev.Shift)
	case InvalidateTenant:
		n := in.target.InvalidateTenant(ev.SID)
		in.stats.TenantInvs++
		in.stats.Dropped += uint64(n)
		in.clearStaleSID(ev.SID)
		in.emit(now, "invalidate", ev.SID, 0, 0, n, 0)
	case FlushAll:
		n := in.target.FlushAll()
		in.stats.Flushes++
		in.stats.Dropped += uint64(n)
		clear(in.stale)
		in.emit(now, "invalidate", 0, 0, 0, n, 0)
	case Remap:
		if err := in.target.Remap(ev.SID, ev.IOVA, ev.Shift); err != nil {
			if in.err == nil {
				in.err = fmt.Errorf("fault: remap SID %d iova %#x: %w", ev.SID, ev.IOVA, err)
			}
			return
		}
		in.stats.Remaps++
		in.emit(now, "remap", ev.SID, ev.IOVA, ev.Shift, 0, 0)
		if ev.Silent {
			// No invalidation: the device may keep serving the old frame
			// until a later InvalidatePage closes the window.
			in.stale[keyOf(ev.SID, ev.IOVA, ev.Shift)] = struct{}{}
		} else {
			in.invalidatePage(now, ev.SID, ev.IOVA, ev.Shift)
		}
	case WalkerFault:
		in.stats.WalkerFaults++
		if ev.Dur > 0 {
			if until := now.Add(ev.Dur); until > in.faultUntil {
				in.faultUntil = until
			}
		} else {
			n := ev.N
			if n <= 0 {
				n = 1
			}
			in.faultsLeft += n
		}
		in.emit(now, "walker_fault", ev.SID, 0, 0, ev.N, ev.Dur)
	case Detach:
		n := in.target.InvalidateTenant(ev.SID)
		in.stats.Detaches++
		in.stats.Dropped += uint64(n)
		in.clearStaleSID(ev.SID)
		in.emit(now, "detach", ev.SID, 0, 0, n, 0)
	case Attach:
		in.stats.Attaches++
		in.emit(now, "attach", ev.SID, 0, 0, 0, 0)
	}
}

// invalidatePage issues one page's invalidation command: it closes any
// stale window for the page and marks its next walk a forced re-walk.
func (in *Injector) invalidatePage(now sim.Time, sid mem.SID, iova uint64, shift uint8) {
	in.target.InvalidatePage(sid, iova, shift)
	in.stats.PageInvs++
	k := keyOf(sid, iova, shift)
	delete(in.stale, k)
	in.rewalk[k] = struct{}{}
	in.emit(now, "invalidate", sid, iova, shift, 0, 0)
}

func (in *Injector) clearStaleSID(sid mem.SID) {
	for k := range in.stale {
		if k.sid == sid {
			delete(in.stale, k)
		}
	}
}

// WalkAttempt implements pipeline.FaultHook: a walk attempt faults while
// the injector is armed and the host has not yet serviced the fault
// (attempt < MaxRetries); the backoff doubles per attempt up to the cap.
// The cap is tested before the shift, so a long retry chain saturates at
// BackoffMax instead of overflowing into a negative delay.
func (in *Injector) WalkAttempt(now sim.Time, sid mem.SID, attempt int) (sim.Duration, bool) {
	if attempt >= in.retry.MaxRetries {
		return 0, false // host serviced the fault; the walk proceeds
	}
	if in.faultsLeft > 0 {
		in.faultsLeft--
	} else if now >= in.faultUntil {
		return 0, false
	}
	in.stats.FaultRetries++
	d := in.retry.BackoffMax
	if in.retry.Backoff <= d>>uint(attempt) {
		d = in.retry.Backoff << uint(attempt)
	}
	return d, true
}

// OnWalk implements pipeline.FaultHook: the first walk of a page after
// its remap/invalidation is the forced re-walk the script provoked.
func (in *Injector) OnWalk(now sim.Time, sid mem.SID, iova uint64, shift uint8) {
	k := keyOf(sid, iova, shift)
	if _, ok := in.rewalk[k]; !ok {
		return
	}
	delete(in.rewalk, k)
	in.stats.Rewalks++
	in.emit(now, "rewalk", sid, iova, shift, 0, 0)
}

// OnProbeHit implements pipeline.FaultHook: a device-side hit on a
// silently remapped page is a stale-translation window exposure.
func (in *Injector) OnProbeHit(now sim.Time, sid mem.SID, iova uint64, shift uint8) {
	if len(in.stale) == 0 {
		return
	}
	if _, ok := in.stale[keyOf(sid, iova, shift)]; !ok {
		return
	}
	in.stats.StaleHits++
	in.emit(now, "stale_hit", sid, iova, shift, 0, 0)
}

// Err reports the first event-application failure (a plan remapping an
// unmappable page), checked by core.System after the run drains.
func (in *Injector) Err() error { return in.err }

// Stats is the injector's accounting snapshot.
type Stats struct {
	Applied       uint64 // scripted events fired
	Dropped       uint64 // cache entries dropped by invalidations
	PageInvs      uint64 // page-scoped invalidation commands
	TenantInvs    uint64 // tenant-scoped invalidation commands
	Flushes       uint64 // broadcast flushes
	Remaps        uint64 // mid-flight page-table updates
	WalkerFaults  uint64 // walker-fault arm events
	FaultRetries  uint64 // faulted walk attempts (each backed off once)
	Rewalks       uint64 // forced re-walks observed
	StaleHits     uint64 // probe hits inside a stale window
	Detaches      uint64
	Attaches      uint64
	StalePending  int // pages still inside an unclosed stale window
	RewalkPending int // invalidated/remapped pages not yet re-walked
}

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats {
	s := in.stats
	s.StalePending, s.RewalkPending = len(in.stale), len(in.rewalk)
	return s
}

// Register publishes the injector's counters under prefix ("fault.*").
func (in *Injector) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+".applied", func() uint64 { return in.stats.Applied })
	r.Counter(prefix+".dropped", func() uint64 { return in.stats.Dropped })
	r.Counter(prefix+".page_invalidates", func() uint64 { return in.stats.PageInvs })
	r.Counter(prefix+".tenant_invalidates", func() uint64 { return in.stats.TenantInvs })
	r.Counter(prefix+".flushes", func() uint64 { return in.stats.Flushes })
	r.Counter(prefix+".remaps", func() uint64 { return in.stats.Remaps })
	r.Counter(prefix+".walker_faults", func() uint64 { return in.stats.WalkerFaults })
	r.Counter(prefix+".fault_retries", func() uint64 { return in.stats.FaultRetries })
	r.Counter(prefix+".rewalks", func() uint64 { return in.stats.Rewalks })
	r.Counter(prefix+".stale_hits", func() uint64 { return in.stats.StaleHits })
	r.Counter(prefix+".detaches", func() uint64 { return in.stats.Detaches })
	r.Counter(prefix+".attaches", func() uint64 { return in.stats.Attaches })
}
