package core

import (
	"hypertrio/internal/obs"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
)

// sampler owns the periodic time-series sampling: the interval, the
// series under construction, and the previous-sample window state that
// turns cumulative counters into per-window rates. It only reads model
// state (through the chain's stats accessors), so enabling it cannot
// change simulation outcomes.
type sampler struct {
	every     sim.Duration
	series    *obs.Series
	bytes     *uint64
	chain     *pipeline.Chain
	walkerCap int // configured walker-pool size, for the utilization rate

	// Window state: values at the previous sample, so each Point reports
	// rates over its window rather than cumulative averages.
	last           sim.Time
	prevBytes      uint64
	prevDevHits    uint64
	prevDevLookups uint64
	prevPBHits     uint64
	prevPBLookups  uint64
}

func newSampler(every sim.Duration, bytes *uint64, chain *pipeline.Chain, walkerCap int) *sampler {
	return &sampler{
		every: every, series: &obs.Series{Interval: every},
		bytes: bytes, chain: chain, walkerCap: walkerCap,
	}
}

// start schedules the first tick.
func (sp *sampler) start(e *sim.Engine) { e.ScheduleEvent(sp.every, sp, 0) }

// HandleEvent records one sample and reschedules only while model events
// remain pending, so the sampler never keeps a drained engine alive.
// Typed self-rescheduling keeps the tick allocation-free.
func (sp *sampler) HandleEvent(e *sim.Engine, now sim.Time, _ uint64) {
	sp.record(now)
	if e.Pending() > 0 {
		e.ScheduleEvent(sp.every, sp, 0)
	}
}

// flush closes the final partial window so short runs still get a point.
func (sp *sampler) flush(now sim.Time) {
	if now > sp.last {
		sp.record(now)
	}
}

// record appends one Point covering the window since the previous
// sample. The chain's stats accessors report zeroes for absent stages,
// so the corresponding rates stay zero without special cases.
func (sp *sampler) record(now sim.Time) {
	window := now.Sub(sp.last)
	if window <= 0 {
		return
	}
	p := obs.Point{T: int64(now)}
	bytes := *sp.bytes
	p.Gbps = float64((bytes-sp.prevBytes)*8) / window.Seconds() / 1e9
	sp.prevBytes = bytes
	p.PTBInUse = sp.chain.PTBInUse()
	dev := sp.chain.DevTLBStats()
	if dl := dev.Lookups - sp.prevDevLookups; dl > 0 {
		p.DevTLBHitRate = float64(dev.Hits-sp.prevDevHits) / float64(dl)
	}
	sp.prevDevHits, sp.prevDevLookups = dev.Hits, dev.Lookups
	pb := sp.chain.PrefetchStats().Buffer
	if dl := pb.Lookups - sp.prevPBLookups; dl > 0 {
		p.PBHitRate = float64(pb.Hits-sp.prevPBHits) / float64(dl)
	}
	sp.prevPBHits, sp.prevPBLookups = pb.Hits, pb.Lookups
	p.WalkersBusy = sp.chain.WalkersBusy()
	if sp.walkerCap > 0 {
		p.WalkerUtil = float64(sp.chain.WalkersBusy()) / float64(sp.walkerCap)
	}
	sp.series.Points = append(sp.series.Points, p)
	sp.last = now
}
