package pipeline

import (
	"fmt"

	"hypertrio/internal/obs"
)

// InvariantStage is a verification decorator over the chain's admission
// stage: it observes every admission attempt and every slot release and
// asserts the model's conservation properties as they happen —
//
//   - occupancy never exceeds the admitter's capacity,
//   - a slot is never released that was never admitted,
//   - attempts always split exactly into admissions plus rejections.
//
// Config.Invariants composes it last in the chain, which then routes
// every admission and release through it to the PTB. It changes nothing
// about the simulation: admit/reject decisions pass through untouched,
// so a run with the checker is byte-identical to one without. The first
// violation is sticky and reported by CheckFinal; internal/core
// cross-checks the counts against its packet accounting after the run
// drains.
type InvariantStage struct {
	inner    *AdmissionStage // the decorated admission; nil admits everything
	capacity int             // inner capacity; 0 = unbounded (no admission)

	attempts    obs.Counter
	admitted    obs.Counter
	rejected    obs.Counter
	released    obs.Counter
	outstanding int
	peak        int

	err error // first violation, sticky
}

func (st *InvariantStage) violate(format string, args ...any) {
	if st.err == nil {
		st.err = fmt.Errorf("invariant violated: "+format, args...)
	}
}

// newInvariantStage decorates inner (nil for a chain without admission).
func newInvariantStage(inner *AdmissionStage) *InvariantStage {
	st := &InvariantStage{inner: inner}
	if inner != nil {
		st.capacity = inner.PTB().Capacity()
	}
	return st
}

func (st *InvariantStage) Name() string { return "invariants" }

func (st *InvariantStage) Register(r *obs.Registry, p string) {
	r.Counter(p+".attempts", &st.attempts)
	r.Counter(p+".admitted", &st.admitted)
	r.Counter(p+".rejected", &st.rejected)
	r.Counter(p+".released", &st.released)
	r.Gauge(p+".outstanding", func() float64 { return float64(st.outstanding) })
}

func (st *InvariantStage) Describe() string {
	return "invariant checker: conservation of admissions, releases and occupancy"
}

// Admit decorates the real admission decision with occupancy accounting.
func (st *InvariantStage) Admit() bool {
	st.attempts.Inc()
	ok := st.inner.Admit()
	if ok {
		st.admitted.Inc()
		st.outstanding++
		if st.outstanding > st.peak {
			st.peak = st.outstanding
		}
		if st.capacity > 0 && st.outstanding > st.capacity {
			st.violate("occupancy %d exceeds admission capacity %d", st.outstanding, st.capacity)
		}
	} else {
		st.rejected.Inc()
		if st.capacity > 0 && st.outstanding < st.capacity {
			st.violate("admission rejected with %d of %d slots occupied", st.outstanding, st.capacity)
		}
	}
	return ok
}

// Release decorates slot release, catching completions without admission.
func (st *InvariantStage) Release() {
	st.released.Inc()
	if st.outstanding == 0 {
		st.violate("slot released with no packet admitted")
		return
	}
	st.outstanding--
	st.inner.Release()
}

// Report is the checker's accounting snapshot for external cross-checks.
type InvariantReport struct {
	Attempts, Admitted, Rejected, Released uint64
	Outstanding, Peak                      int
}

// Report returns the counts observed so far.
func (st *InvariantStage) Report() InvariantReport {
	return InvariantReport{
		Attempts: st.attempts.Value(), Admitted: st.admitted.Value(),
		Rejected: st.rejected.Value(), Released: st.released.Value(),
		Outstanding: st.outstanding, Peak: st.peak,
	}
}

// CheckFinal reports the first in-run violation, or end-state violations:
// a drained simulation must have released every admission and split every
// attempt into exactly one admit or reject.
func (st *InvariantStage) CheckFinal() error {
	if st.err != nil {
		return st.err
	}
	if st.outstanding != 0 {
		return fmt.Errorf("invariant violated: %d admissions never released", st.outstanding)
	}
	if a, ad, rj := st.attempts.Value(), st.admitted.Value(), st.rejected.Value(); a != ad+rj {
		return fmt.Errorf("invariant violated: %d attempts != %d admitted + %d rejected", a, ad, rj)
	}
	if ad, rl := st.admitted.Value(), st.released.Value(); ad != rl {
		return fmt.Errorf("invariant violated: %d admitted != %d released", ad, rl)
	}
	return nil
}

// RejectN decorates a bulk rejection of n attempts: like n failed
// Admits, it is a violation while any slot is free.
func (st *InvariantStage) RejectN(n uint64) {
	st.attempts.Add(n)
	st.rejected.Add(n)
	if st.capacity > 0 && st.outstanding < st.capacity {
		st.violate("%d admissions rejected with %d of %d slots occupied", n, st.outstanding, st.capacity)
	}
	st.inner.RejectN(n)
}
