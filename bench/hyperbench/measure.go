package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hypertrio/internal/core"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// segmentPackets is how many packet pulls one timing segment spans.
const segmentPackets = 256

// segmentClock stamps the host time every segmentPackets ticks, so that
// replays of one identical computation are timed slice by slice and line
// up segment by segment. Marks are preallocated from a previous replay's
// count, so stamping allocates nothing once warm.
type segmentClock struct {
	ticks int
	marks []time.Time
}

func (c *segmentClock) tick() {
	if c.ticks++; c.ticks == segmentPackets {
		c.ticks = 0
		c.marks = append(c.marks, time.Now())
	}
}

// segments returns the host seconds of each segment of a replay that ran
// from start to end.
func (c *segmentClock) segments(start, end time.Time) []float64 {
	segs := make([]float64, 0, len(c.marks)+1)
	prev := start
	for _, m := range append(c.marks, end) {
		segs = append(segs, m.Sub(prev).Seconds())
		prev = m
	}
	return segs
}

// fastestSegments is the per-segment minimum over passes of one
// identical computation. Interference from a shared host only ever adds
// time, so each segment's fastest pass is the best estimate of its own
// cost; bench/README.md gives the measurements that chose this over the
// median pass.
type fastestSegments []float64

// fold takes one more pass's segment times into the minimum.
func (f *fastestSegments) fold(segs []float64) {
	if *f == nil {
		*f = append(fastestSegments(nil), segs...)
		return
	}
	for k := range *f {
		if k < len(segs) && segs[k] < (*f)[k] {
			(*f)[k] = segs[k]
		}
	}
}

// total is the seconds of a pass made of every segment's fastest time.
func (f fastestSegments) total() float64 {
	sum := 0.0
	for _, s := range f {
		sum += s
	}
	return sum
}

// segmentSource hands the workload's packets through unchanged and ticks
// its clock once per pull.
type segmentSource struct {
	trace.Source
	clock segmentClock
}

func (s *segmentSource) Next() (workload.Packet, bool) {
	s.clock.tick()
	return s.Source.Next()
}

// replay is what a run keeps of one set-up plus one timed System.Run.
type replay struct {
	buildS, compileS, newsysS float64
	runS                      float64
	packets                   uint64
	mallocs                   uint64
}

func (r replay) setupS() float64 { return r.buildS + r.compileS + r.newsysS }

// untraced is the closed-batch measurement of one workload: replays run
// back to back, one simulation at a time, until the time budget is
// spent. The run's last System stays reachable for the live counters
// the traced run checks its layer replays against.
type untraced struct {
	w     workloadDef
	seed  int64
	size  float64
	want  string // digest every timed replay must reproduce
	marks int    // segments of one replay, to presize the stamps

	clock    hostClock
	replays  []replay
	bestSegs fastestSegments
	attempts int
	failures []string
	heapMB   float64
	res      core.Result
	sys      *core.System
	inst     *instance
}

// prepared is one built workload and its unrun System.
type prepared struct {
	inst *instance
	sys  *core.System
	src  *segmentSource
	rep  replay
}

// setup builds the workload and its System, timing each part, with the
// collector settled first so set-up is not billed for the previous
// replay's garbage either. marks sizes the segment stamps (a previous
// replay's segment count).
func setup(w workloadDef, seed int64, size float64, marks int) (*prepared, error) {
	runtime.GC()
	inst, err := w.build(seed, size)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	src := &segmentSource{Source: inst.src, clock: segmentClock{marks: make([]time.Time, 0, marks)}}
	t0 := time.Now()
	sys, err := core.NewSystemSource(inst.cfg, src)
	if err != nil {
		return nil, fmt.Errorf("%s: new system: %w", w.name, err)
	}
	rep := replay{buildS: inst.buildS, compileS: inst.compileS, newsysS: time.Since(t0).Seconds()}
	return &prepared{inst: inst, sys: sys, src: src, rep: rep}, nil
}

// timedRun runs the System once with the collector settled first, so the
// run is not billed for the previous replay's garbage. It returns the
// Result, its digest and the host seconds of each segment.
func (p *prepared) timedRun() (core.Result, string, []float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := p.sys.Run()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, "", nil, err
	}
	p.rep.runS = end.Sub(t0).Seconds()
	p.rep.packets = res.Packets
	p.rep.mallocs = m1.Mallocs - m0.Mallocs
	return res, digest(res), p.src.clock.segments(t0, end), nil
}

// minReplays is the fewest timed replays of a run, however short its
// budget: enough for quartiles and a per-segment minimum.
const minReplays = 3

// measure runs one warm-up replay, then timed replays until budget has
// passed and at least minReplays ran. want is the digest every replay
// must produce; empty means the warm-up's digest, so that at seeds with
// no committed digest all replays of the run must agree.
func measure(w workloadDef, seed int64, size float64, budget time.Duration, want string) (*untraced, error) {
	u := &untraced{w: w, seed: seed, size: size, attempts: 1}
	for i := 0; i < 3; i++ {
		u.clock.sample()
	}
	warm, err := setup(w, seed, size, 0)
	if err != nil {
		return nil, err
	}
	_, got, warmSegs, err := warm.timedRun()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up replay: %w", w.name, err)
	}
	if want == "" {
		want = got
	} else if got != want {
		u.failures = append(u.failures, fmt.Sprintf("warm-up: digest %s, want %s", got, want))
	}
	u.want, u.marks = want, len(warmSegs)
	start := time.Now()
	for timed := 0; timed < minReplays || time.Since(start) < budget; timed++ {
		if err := u.timedReplay(); err != nil {
			return nil, err
		}
	}
	if u.sys == nil {
		return u, nil
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	u.heapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(u.sys)
	return u, nil
}

// timedReplay sets the workload up afresh and runs it once more, checked
// against the run's digest. A replay that errs or differs is a failure,
// not an error: the run goes on and reports it.
func (u *untraced) timedReplay() error {
	u.attempts++
	u.clock.maybeSample()
	p, err := setup(u.w, u.seed, u.size, u.marks)
	if err != nil {
		return err
	}
	res, got, segs, err := p.timedRun()
	switch {
	case err != nil:
		u.failures = append(u.failures, fmt.Sprintf("replay %d: %v", u.attempts, err))
		return nil
	case got != u.want:
		u.failures = append(u.failures, fmt.Sprintf("replay %d: digest %s, want %s", u.attempts, got, u.want))
		return nil
	}
	u.bestSegs.fold(segs)
	u.replays = append(u.replays, p.rep)
	u.res, u.sys, u.inst = res, p.sys, p.inst
	return nil
}

func pktsPerS(r replay) float64 { return float64(r.packets) / r.runS }

// samples extracts one per-replay series.
func (u *untraced) samples(f func(replay) float64) []float64 {
	out := make([]float64, len(u.replays))
	for i, r := range u.replays {
		out[i] = f(r)
	}
	return out
}

// scaled extracts one per-replay series of host seconds, scaled to the
// reference host.
func (u *untraced) scaled(f func(replay) float64) []float64 {
	k := u.clock.scale()
	out := u.samples(f)
	for i := range out {
		out[i] *= k
	}
	return out
}

// bestRunS is the run's replay time in reference-host seconds, assembled
// segment by segment from the fastest replay of each segment. The
// replays of a run pull the same packets (their digests agree), so their
// segments line up one to one.
func (u *untraced) bestRunS() float64 {
	if len(u.replays) == 0 {
		return math.NaN()
	}
	return u.bestSegs.total() * u.clock.scale()
}

// nsPerPkt is the host time of one packet, by the same estimate as
// pkts_per_s.
func (u *untraced) nsPerPkt() float64 { return u.bestRunS() * 1e9 / float64(u.res.Packets) }

// endToEnd reports the untraced metrics. The quartiles and count given
// with pkts_per_s describe whole replays.
func (u *untraced) endToEnd() []metric {
	var mallocs, pkts uint64
	for _, r := range u.replays {
		mallocs += r.mallocs
		pkts += r.packets
	}
	k := u.clock.scale()
	return []metric{
		sampled("pkts_per_s", float64(u.res.Packets)/u.bestRunS(),
			u.samples(func(r replay) float64 { return pktsPerS(r) / k })),
		medianOf("setup_s", u.scaled(replay.setupS)),
		single("live_heap_mb", u.heapMB),
		sampled("allocs_per_pkt", ratio(float64(mallocs), float64(pkts)),
			u.samples(func(r replay) float64 { return ratio(float64(r.mallocs), float64(r.packets)) })),
	}
}
