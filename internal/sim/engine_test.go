package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// funcSink adapts a plain function to EventSink, so tests can queue
// one-off callbacks without declaring a sink type for each.
type funcSink func(e *Engine, now Time)

func (f funcSink) HandleEvent(e *Engine, now Time, _ uint64) { f(e, now) }

// schedule queues fn after delay through a funcSink.
func schedule(e *Engine, delay Duration, fn funcSink) {
	e.ScheduleEvent(delay, fn, 0)
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
