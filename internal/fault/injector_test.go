package fault

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
)

// fakeTarget records the invalidation datapath calls in order.
type fakeTarget struct {
	log      []string
	remapErr error
}

func (f *fakeTarget) InvalidatePage(sid mem.SID, iova uint64, shift uint8) {
	f.log = append(f.log, fmt.Sprintf("page(%d,%#x,%d)", sid, iova, shift))
}
func (f *fakeTarget) InvalidateTenant(sid mem.SID) int {
	f.log = append(f.log, fmt.Sprintf("tenant(%d)", sid))
	return 4
}
func (f *fakeTarget) FlushAll() int {
	f.log = append(f.log, "flush")
	return 9
}
func (f *fakeTarget) Remap(sid mem.SID, iova uint64, shift uint8) error {
	f.log = append(f.log, fmt.Sprintf("remap(%d,%#x,%d)", sid, iova, shift))
	return f.remapErr
}

func newTestInjector(t *testing.T, p *Plan, tgt Target, tr *obs.Tracer) *Injector {
	t.Helper()
	in, err := NewInjector(p, tgt, tr)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInjectorAppliesPlanInOrder(t *testing.T) {
	p := fullPlan()
	tgt := &fakeTarget{}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	in := newTestInjector(t, p, tgt, tr)
	e := sim.NewEngine()
	in.Start(e)
	if e.Pending() != len(p.Events) {
		t.Fatalf("Start scheduled %d events, want %d", e.Pending(), len(p.Events))
	}
	e.Run()
	want := []string{
		"page(3,0x34806000,12)",  // InvalidatePage of SID 3's ring page
		"remap(3,0x34806000,12)", // silent remap: no invalidation follows
		"tenant(5)",
		"tenant(2)", // detach flushes the tenant
		"flush",
	}
	if got := strings.Join(tgt.log, " "); got != strings.Join(want, " ") {
		t.Errorf("target call order:\n got %s\nwant %s", got, strings.Join(want, " "))
	}
	st := in.Stats()
	if st.Applied != uint64(len(p.Events)) {
		t.Errorf("applied %d events, want %d", st.Applied, len(p.Events))
	}
	if st.PageInvs != 1 || st.TenantInvs != 1 || st.Flushes != 1 || st.Remaps != 1 ||
		st.Detaches != 1 || st.Attaches != 1 || st.WalkerFaults != 2 {
		t.Errorf("stats drifted: %+v", st)
	}
	// tenant(5): 4 dropped; detach: 4; flush: 9.
	if st.Dropped != 17 {
		t.Errorf("dropped = %d, want 17", st.Dropped)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{`"ev":"invalidate"`, `"ev":"remap"`, `"ev":"walker_fault"`, `"ev":"detach"`, `"ev":"attach"`} {
		if !strings.Contains(buf.String(), ev) {
			t.Errorf("trace lacks %s", ev)
		}
	}
	if err := in.Err(); err != nil {
		t.Errorf("unexpected injector error: %v", err)
	}
}

func TestInjectorRemapErrorSticky(t *testing.T) {
	p := &Plan{Events: []Event{{At: 1, Kind: Remap, SID: 1, IOVA: 0x5000, Shift: 12}}}
	tgt := &fakeTarget{remapErr: fmt.Errorf("boom")}
	in := newTestInjector(t, p, tgt, nil)
	e := sim.NewEngine()
	in.Start(e)
	e.Run()
	if err := in.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Err() = %v, want the remap failure", err)
	}
}

func TestWalkerFaultCountArming(t *testing.T) {
	p := &Plan{
		Retry:  RetryPolicy{MaxRetries: 3, Backoff: sim.Microsecond, BackoffMax: 10 * sim.Microsecond},
		Events: []Event{{At: 0, Kind: WalkerFault, N: 2}},
	}
	in := newTestInjector(t, p, &fakeTarget{}, nil)
	in.apply(0, p.Events[0])

	// First armed attempt faults with the base backoff.
	d, faulted := in.WalkAttempt(0, 1, 0)
	if !faulted || d != sim.Microsecond {
		t.Fatalf("attempt 0: (%v, %v), want (1us, true)", d, faulted)
	}
	// Second armed attempt (attempt 1 of the same walk): backoff doubles.
	d, faulted = in.WalkAttempt(0, 1, 1)
	if !faulted || d != 2*sim.Microsecond {
		t.Fatalf("attempt 1: (%v, %v), want (2us, true)", d, faulted)
	}
	// Arming exhausted: the next attempt proceeds.
	if _, faulted = in.WalkAttempt(0, 1, 2); faulted {
		t.Fatal("attempt with no arming left still faulted")
	}
	if st := in.Stats(); st.FaultRetries != 2 {
		t.Errorf("fault retries = %d, want 2", st.FaultRetries)
	}
}

func TestWalkerFaultWindowAndTimeout(t *testing.T) {
	p := &Plan{
		Retry:  RetryPolicy{MaxRetries: 2, Backoff: sim.Microsecond, BackoffMax: 1500 * sim.Nanosecond},
		Events: []Event{{At: 0, Kind: WalkerFault, Dur: 100 * sim.Microsecond}},
	}
	in := newTestInjector(t, p, &fakeTarget{}, nil)
	in.apply(0, p.Events[0])

	d, faulted := in.WalkAttempt(1, 1, 0)
	if !faulted || d != sim.Microsecond {
		t.Fatalf("attempt 0 in window: (%v, %v), want (1us, true)", d, faulted)
	}
	// Backoff doubles but is capped.
	d, faulted = in.WalkAttempt(2, 1, 1)
	if !faulted || d != 1500*sim.Nanosecond {
		t.Fatalf("attempt 1 in window: (%v, %v), want capped 1.5us", d, faulted)
	}
	// MaxRetries reached: the host serviced the fault, the walk proceeds
	// even inside the window.
	if _, faulted = in.WalkAttempt(3, 1, 2); faulted {
		t.Fatal("attempt past MaxRetries still faulted")
	}
	// Outside the window fresh walks proceed.
	if _, faulted = in.WalkAttempt(sim.Time(200*sim.Microsecond), 1, 0); faulted {
		t.Fatal("attempt outside the window faulted")
	}
}

// TestBackoffSaturates runs the longest retry chain a plan may ask for:
// the doubling backoff must reach BackoffMax and stay there, never
// overflowing into a negative delay (at attempt 45 for a 500 ns base).
func TestBackoffSaturates(t *testing.T) {
	p := &Plan{
		Retry:  RetryPolicy{MaxRetries: maxRetries, Backoff: 500 * sim.Nanosecond, BackoffMax: 10 * sim.Microsecond},
		Events: []Event{{At: 0, Kind: WalkerFault, N: maxRetries}},
	}
	in := newTestInjector(t, p, &fakeTarget{}, nil)
	in.apply(0, p.Events[0])
	want := 500 * sim.Nanosecond
	for attempt := 0; attempt < maxRetries; attempt++ {
		d, faulted := in.WalkAttempt(0, 1, attempt)
		if !faulted || d != want {
			t.Fatalf("attempt %d: (%v, %v), want (%v, true)", attempt, d, faulted, want)
		}
		want = min(2*want, 10*sim.Microsecond)
	}
	if _, faulted := in.WalkAttempt(0, 1, maxRetries); faulted {
		t.Fatal("attempt past MaxRetries still faulted")
	}
}

func TestStaleWindowAndRewalkTracking(t *testing.T) {
	const (
		sid   = mem.SID(4)
		iova  = uint64(0x34806000)
		shift = uint8(12)
	)
	p := &Plan{Events: []Event{
		{At: 1, Kind: Remap, SID: sid, IOVA: iova, Shift: shift, Silent: true},
		{At: 2, Kind: InvalidatePage, SID: sid, IOVA: iova, Shift: shift},
	}}
	in := newTestInjector(t, p, &fakeTarget{}, nil)

	// Silent remap opens the stale window: device-side hits are stale.
	in.apply(1, p.Events[0])
	in.OnProbeHit(1, sid, iova, shift)
	in.OnProbeHit(1, sid, iova, shift)
	in.OnProbeHit(1, sid+1, iova, shift) // different tenant: not stale
	if st := in.Stats(); st.StaleHits != 2 || st.StalePending != 1 {
		t.Fatalf("stale accounting: %+v", st)
	}

	// The invalidation closes the window and forces a re-walk.
	in.apply(2, p.Events[1])
	in.OnProbeHit(2, sid, iova, shift)
	if st := in.Stats(); st.StaleHits != 2 || st.StalePending != 0 {
		t.Fatalf("stale window not closed: %+v", st)
	}
	in.OnWalk(3, sid, iova, shift)
	in.OnWalk(4, sid, iova, shift) // second walk of the page is ordinary
	if st := in.Stats(); st.Rewalks != 1 || st.RewalkPending != 0 {
		t.Fatalf("rewalk accounting: %+v", st)
	}
}

func TestInjectorRejectsBadInput(t *testing.T) {
	if _, err := NewInjector(nil, &fakeTarget{}, nil); err == nil {
		t.Error("NewInjector accepted a nil plan")
	}
	if _, err := NewInjector(&Plan{}, nil, nil); err == nil {
		t.Error("NewInjector accepted a nil target")
	}
	bad := &Plan{Events: []Event{{Kind: kindCount}}}
	if _, err := NewInjector(bad, &fakeTarget{}, nil); err == nil {
		t.Error("NewInjector accepted an invalid plan")
	}
}
