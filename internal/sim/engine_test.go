package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// funcSink adapts a plain function to EventSink, so tests can queue
// one-off callbacks without declaring a sink type for each.
type funcSink func(e *Engine, now Time)

func (f funcSink) HandleEvent(e *Engine, now Time, _ uint64) { f(e, now) }

// schedule queues fn after delay through a funcSink.
func schedule(e *Engine, delay Duration, fn funcSink) EventID {
	return e.ScheduleEvent(delay, fn, 0)
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	schedule(e, 30*Nanosecond, func(*Engine, Time) { got = append(got, 3) })
	schedule(e, 10*Nanosecond, func(*Engine, Time) { got = append(got, 1) })
	schedule(e, 20*Nanosecond, func(*Engine, Time) { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != Time(30*Nanosecond) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(e, 5*Nanosecond, func(*Engine, Time) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick funcSink
	tick = func(e *Engine, now Time) {
		ticks = append(ticks, now)
		if len(ticks) < 5 {
			schedule(e, 7*Nanosecond, tick)
		}
	}
	schedule(e, 0, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := Time(int64(i) * 7 * int64(Nanosecond))
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := schedule(e, 10*Nanosecond, func(*Engine, Time) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel should return false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	id := schedule(e, 1*Nanosecond, func(*Engine, Time) {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("Cancel after fire should return false")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		schedule(e, Duration(i)*Nanosecond, func(e *Engine, _ Time) {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("fired %d events before stop, want 4", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 10; i++ {
		schedule(e, Duration(i)*Microsecond, func(_ *Engine, now Time) { fired = append(fired, now) })
	}
	n := e.RunUntil(Time(5 * Microsecond))
	if n != 5 {
		t.Fatalf("RunUntil fired %d, want 5", n)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("clock = %v, want 5us", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	// RunUntil advances the clock to the deadline even with no event there.
	e.RunUntil(Time(7500 * Nanosecond))
	if e.Now() != Time(7500*Nanosecond) {
		t.Fatalf("clock = %v, want 7.5us", e.Now())
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		schedule(e, Duration(i), func(*Engine, Time) {})
	}
	if n := e.RunLimit(17); n != 17 {
		t.Fatalf("RunLimit fired %d, want 17", n)
	}
}

// Property: any batch of randomly timed events fires in nondecreasing
// time order, and same-time events fire in schedule order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			schedule(e, Duration(d)*Nanosecond, func(_ *Engine, now Time) {
				fired = append(fired, firing{now, i})
			})
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(64)
		firedSet := make(map[int]bool)
		ids := make([]EventID, n)
		for i := 0; i < n; i++ {
			i := i
			ids[i] = schedule(e, Duration(rng.Intn(1000))*Nanosecond, func(*Engine, Time) { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && firedSet[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
			if !cancelled[i] && !firedSet[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0"},
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{Duration(61680), "61.680ns"},
		{3 * Microsecond, "3.000us"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestFromNanos(t *testing.T) {
	if d := FromNanos(61.68); d != 61680 {
		t.Fatalf("FromNanos(61.68) = %d ps, want 61680", int64(d))
	}
	if d := FromNanos(0.5); d != 500 {
		t.Fatalf("FromNanos(0.5) = %d ps, want 500", int64(d))
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100 * Nanosecond)
	t1 := t0.Add(50 * Nanosecond)
	if t1.Sub(t0) != 50*Nanosecond {
		t.Fatalf("Sub = %v, want 50ns", t1.Sub(t0))
	}
	if t1.Nanoseconds() != 150 {
		t.Fatalf("Nanoseconds = %v, want 150", t1.Nanoseconds())
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		schedule(e, Duration(i)*Nanosecond, func(*Engine, Time) {})
	}
	if e.Pending() != 5 || e.Fired() != 0 {
		t.Fatalf("pending=%d fired=%d", e.Pending(), e.Fired())
	}
	e.Step()
	e.Step()
	if e.Pending() != 3 || e.Fired() != 2 {
		t.Fatalf("after 2 steps: pending=%d fired=%d", e.Pending(), e.Fired())
	}
	e.Run()
	if e.Pending() != 0 || e.Fired() != 5 {
		t.Fatalf("after run: pending=%d fired=%d", e.Pending(), e.Fired())
	}
}

func TestDurationStd(t *testing.T) {
	if (1500 * Nanosecond).Std().Nanoseconds() != 1500 {
		t.Fatal("Std conversion wrong")
	}
	if Duration(999).Std() != 0 { // sub-nanosecond truncates
		t.Fatal("sub-ns Std should truncate to zero")
	}
}

// TestRunUntilStopMidWindow pins the clock-advance contract: when Stop
// fires mid-window the clock must stay at the stopping event's time (not
// jump to the deadline), the remaining in-window events must stay
// queued, Stopped must report true, and a later RunUntil with the same
// deadline must resume and finish the window.
func TestRunUntilStopMidWindow(t *testing.T) {
	e := NewEngine()
	var got []int
	schedule(e, 10*Nanosecond, func(e *Engine, _ Time) {
		got = append(got, 1)
		e.Stop()
	})
	schedule(e, 20*Nanosecond, func(*Engine, Time) { got = append(got, 2) })

	deadline := Time(50 * Nanosecond)
	if n := e.RunUntil(deadline); n != 1 {
		t.Fatalf("first window fired %d events, want 1", n)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() false after Stop mid-window")
	}
	if e.Now() != Time(10*Nanosecond) {
		t.Fatalf("clock advanced to %v after Stop; want the stopping event's time %v",
			e.Now(), Time(10*Nanosecond))
	}
	if e.Pending() != 1 {
		t.Fatalf("in-window event lost: pending = %d, want 1", e.Pending())
	}

	// Resume: the same deadline finishes the window and lands the clock
	// on the deadline exactly.
	if n := e.RunUntil(deadline); n != 1 {
		t.Fatalf("resumed window fired %d events, want 1", n)
	}
	if e.Stopped() {
		t.Fatal("Stopped() stuck true after a normal window")
	}
	if e.Now() != deadline {
		t.Fatalf("clock = %v after normal window, want deadline %v", e.Now(), deadline)
	}
	if want := []int{1, 2}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired order %v, want %v", got, want)
	}
}

// TestCancelSameTimestampDuringFiring pins Cancel semantics while the
// engine is mid-firing a run of same-timestamp events: a later event at
// the same timestamp is still in the queue and cancels cleanly, while
// the currently executing event (already popped) cannot be cancelled.
func TestCancelSameTimestampDuringFiring(t *testing.T) {
	e := NewEngine()
	var ids [3]EventID
	var fired [3]bool
	var selfCancel, laterCancel bool
	ids[0] = schedule(e, 5*Nanosecond, func(e *Engine, _ Time) {
		fired[0] = true
		selfCancel = e.Cancel(ids[0])  // popped: must fail
		laterCancel = e.Cancel(ids[2]) // still queued at the same ts: must succeed
	})
	ids[1] = schedule(e, 5*Nanosecond, func(*Engine, Time) { fired[1] = true })
	ids[2] = schedule(e, 5*Nanosecond, func(*Engine, Time) { fired[2] = true })
	e.Run()

	if selfCancel {
		t.Fatal("cancelling the currently executing event reported success")
	}
	if !laterCancel {
		t.Fatal("cancelling a queued same-timestamp event failed")
	}
	if !fired[0] || !fired[1] {
		t.Fatalf("fired = %v; events 0 and 1 must run", fired)
	}
	if fired[2] {
		t.Fatal("cancelled same-timestamp event fired anyway")
	}
	// Cancelling an already-cancelled event stays a no-op.
	if e.Cancel(ids[2]) {
		t.Fatal("double cancel reported success")
	}
}

// TestStoppedReset verifies Stopped clears on every run entry point.
func TestStoppedReset(t *testing.T) {
	e := NewEngine()
	schedule(e, 1*Nanosecond, func(e *Engine, _ Time) { e.Stop() })
	e.Run()
	if !e.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	schedule(e, 1*Nanosecond, func(*Engine, Time) {})
	e.Run()
	if e.Stopped() {
		t.Fatal("Stopped() not cleared by the next Run")
	}
}
