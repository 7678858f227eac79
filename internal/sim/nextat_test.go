package sim

import (
	"math/rand"
	"testing"
)

// TestNextAtTracksTheMinimum: a peek reports the earliest pending event
// wherever it sits — ready heap, a wheel level, or the overflow heap —
// after every Step, and reports nothing once the queue drains.
func TestNextAtTracksTheMinimum(t *testing.T) {
	e := NewEngine()
	sink := &drainSink{}
	delays := []Duration{0, 0x3f, 0x40, 0x1000, 0x40001, Duration(1) << 50}
	for i := len(delays) - 1; i >= 0; i-- {
		e.ScheduleEvent(delays[i], sink, 0)
	}
	for _, d := range delays {
		if at, ok := e.NextAt(); !ok || at != Time(d) {
			t.Fatalf("NextAt = %v, %v; want %v, true", at, ok, Time(d))
		}
		if !e.Step() || e.Now() != Time(d) {
			t.Fatalf("Step fired at %v, want %v", e.Now(), Time(d))
		}
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on a drained engine reports an event")
	}
}

// TestNextAtDoesNotMoveCursor: a peek is not a fire; the clock, which is
// also the wheel cursor, stays where it was, however far away the event
// is.
func TestNextAtDoesNotMoveCursor(t *testing.T) {
	e := NewEngine()
	sink := &drainSink{}
	e.ScheduleEvent(5*Nanosecond, sink, 0)
	e.Step()
	for _, d := range []Duration{Duration(1) << 20, Duration(1) << 50} { // a wheel level and the overflow heap
		e.ScheduleEvent(d, sink, 0)
	}
	now, fired := e.Now(), e.Fired()
	for i := 0; i < 3; i++ {
		if at, ok := e.NextAt(); !ok || at != now.Add(Duration(1)<<20) {
			t.Fatalf("NextAt = %v, %v", at, ok)
		}
	}
	if e.Now() != now || e.Fired() != fired {
		t.Fatalf("NextAt moved the engine: now %v->%v fired %d->%d",
			now, e.Now(), fired, e.Fired())
	}
}

// TestNextAtThenEarlierSchedule: an event scheduled after a peek, below
// the peeked minimum, still fires first, and the next peek reports it.
func TestNextAtThenEarlierSchedule(t *testing.T) {
	e := NewEngine()
	var order []string
	at := func(name string) funcSink {
		return func(*Engine, Time) { order = append(order, name) }
	}
	schedule(e, 4096*Nanosecond, at("late"))
	if got, _ := e.NextAt(); got != Time(4096*Nanosecond) {
		t.Fatalf("NextAt = %v, want 4.096us", got)
	}
	schedule(e, 3*Nanosecond, at("early"))
	if got, _ := e.NextAt(); got != Time(3*Nanosecond) {
		t.Fatalf("NextAt after an earlier schedule = %v, want 3ns", got)
	}
	e.Run()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("fire order %v, want [early late]", order)
	}
}

// scriptSink drives a self-extending random workload: every fired event
// schedules up to three children (same picosecond, near, or far enough
// to cross wheel levels). The script draws only from rng, so two engines with equal seeds run the
// same workload; peek, when set, adds NextAt calls from its own source,
// before handlers return and between steps.
type scriptSink struct {
	rng    *rand.Rand
	peek   *rand.Rand
	budget int
	nextID uint64
	fired  []firing
}

type firing struct {
	at Time
	id uint64
}

func (s *scriptSink) schedule(e *Engine) {
	var d Duration
	switch s.rng.Intn(4) {
	case 0:
		d = 0
	case 1:
		d = Duration(s.rng.Intn(64))
	case 2:
		d = Duration(s.rng.Intn(1 << 20))
	default:
		d = Duration(s.rng.Int63n(1 << 50))
	}
	s.nextID++
	s.budget--
	e.ScheduleEvent(d, s, s.nextID)
}

func (s *scriptSink) maybePeek(e *Engine) {
	if s.peek != nil && s.peek.Intn(2) == 0 {
		e.NextAt()
	}
}

func (s *scriptSink) HandleEvent(e *Engine, now Time, id uint64) {
	s.fired = append(s.fired, firing{now, id})
	for n := s.rng.Intn(4); n > 0 && s.budget > 0; n-- {
		s.maybePeek(e)
		s.schedule(e)
	}
	s.maybePeek(e)
}

// TestPropertyNextAtLeavesFireOrder: interleaving NextAt with Step —
// between steps and inside handlers, around schedules —
// leaves the fire sequence unchanged, and a peek made just before a
// Step always names the time of the event that Step fires.
func TestPropertyNextAtLeavesFireOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(peek bool) []firing {
			s := &scriptSink{rng: rand.New(rand.NewSource(seed)), budget: 3000}
			if peek {
				s.peek = rand.New(rand.NewSource(-seed))
			}
			e := NewEngine()
			for i := 0; i < 8; i++ {
				s.schedule(e)
			}
			for {
				var at Time
				ok := e.Pending() > 0
				if peek {
					at, ok = e.NextAt()
				}
				n := len(s.fired)
				if !e.Step() {
					if ok {
						t.Fatalf("seed %d: NextAt reported %v but Step found nothing", seed, at)
					}
					return s.fired
				}
				if peek && s.fired[n].at != at {
					t.Fatalf("seed %d: NextAt = %v, Step fired at %v", seed, at, s.fired[n].at)
				}
			}
		}
		plain, peeked := run(false), run(true)
		if len(plain) != len(peeked) {
			t.Fatalf("seed %d: %d events fired with peeks, %d without", seed, len(peeked), len(plain))
		}
		for i := range plain {
			if plain[i] != peeked[i] {
				t.Fatalf("seed %d: firing %d is %+v with peeks, %+v without", seed, i, peeked[i], plain[i])
			}
		}
	}
}
