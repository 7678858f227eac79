package core

import "hypertrio/internal/sim"

// slotTicker is an inert event on the link-slot grid: it fires at every
// slot time and only re-arms itself. While one is pending, the engine's
// next event is never later than the next link slot, so drop's
// fast-forward has no dead slot to skip and every slot fires as its own
// arrival event.
type slotTicker struct {
	s     *System
	ticks uint64
}

func (k *slotTicker) HandleEvent(e *sim.Engine, now sim.Time, _ uint64) {
	k.ticks++
	// Once the source is drained and its last packet accepted no slot
	// can be dropped; stopping here keeps the ticker from outliving the
	// run's own last event.
	if !k.s.srcDone || k.s.curValid {
		e.ScheduleEvent(k.s.nextGap(now), k, 0)
	}
}

// RunPerSlot is Run with a slot ticker pending at every link slot: the
// reference the drop-retry fast-forward is checked against. It also
// returns the number of model events fired, that is the engine's count
// without the ticks.
func (s *System) RunPerSlot() (Result, uint64, error) {
	k := &slotTicker{s: s}
	s.engine.ScheduleEvent(s.nextGap(0), k, 0)
	r, err := s.Run()
	return r, s.engine.Fired() - k.ticks, err
}
