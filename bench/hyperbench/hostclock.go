package main

import "time"

// Host speed. A shared host runs whole minutes up to 20% slow, which
// shifts every replay of a run alike and which no choice among the run's
// own replays can remove. A fixed loop of the harness's own code, timed
// between replays, measures the host's speed in the same minutes; every
// host time the harness reports is scaled to a reference host on which
// the loop takes refCalibrationS. The loop does not depend on the
// repository, so a change to the program moves scaled times exactly as
// it moves raw ones. bench/README.md gives the measurements.

// refCalibrationS is the loop's time on the reference host: about its
// fastest time on the 2-vCPU virtual machine the baselines come from.
const refCalibrationS = 0.006

// calibrationEvery spaces the samples so that short replays are not
// dominated by them.
const calibrationEvery = 200 * time.Millisecond

// hostClock samples the calibration loop and turns its fastest time into
// the scale factor for host times.
type hostClock struct {
	table []uint64
	times []float64
	last  time.Time
	sink  uint64
}

// sample times one pass of the calibration loop: a dependent chain of
// multiplies through a 256 KiB table, about 6 ms.
func (c *hostClock) sample() {
	if c.table == nil {
		c.table = make([]uint64, 1<<15)
		for i := range c.table {
			c.table[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + c.table[x>>49]
		c.table[(x>>20)&(1<<15-1)] ^= x
	}
	c.times = append(c.times, time.Since(t0).Seconds())
	c.sink += x
	c.last = time.Now()
}

// maybeSample samples unless the last sample is recent.
func (c *hostClock) maybeSample() {
	if time.Since(c.last) >= calibrationEvery {
		c.sample()
	}
}

// scale converts this host's seconds into reference-host seconds.
func (c *hostClock) scale() float64 { return refCalibrationS / minOf(c.times) }
