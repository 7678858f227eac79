package core

import (
	"fmt"

	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/workload"
)

// Result is what one simulation run reports.
type Result struct {
	// Packet accounting.
	Packets uint64 // packets fully translated and processed
	Drops   uint64 // arrival attempts rejected for lack of a PTB entry
	Bytes   uint64

	// Timing.
	Elapsed sim.Duration // time of the last packet completion

	// AchievedGbps is the average bandwidth over the run; Utilization is
	// its fraction of the nominal link rate.
	AchievedGbps float64
	Utilization  float64

	// Requests accounting.
	Requests       uint64       // translation requests observed
	DevTLBServed   uint64       // requests answered by the DevTLB
	PrefetchServed uint64       // requests answered by the Prefetch Buffer
	AvgMissLatency sim.Duration // mean latency of requests that went to the chipset

	// Isolation metrics over per-tenant mean packet service times
	// (first arrival attempt to completion): Jain's fairness index is 1.0
	// when every tenant sees the same mean latency and 1/n in the worst
	// case; the Min/Max pair bounds the spread. The partitioned designs
	// exist precisely to keep these flat as tenants are added.
	LatencyFairness  float64
	MinTenantLatency sim.Duration
	MaxTenantLatency sim.Duration
	WorstPacket      sim.Duration // single slowest packet service time

	// Classes breaks the run down by tenant class for class-partitioned
	// populations (scenario runs), in the population's class order; nil
	// for uniform single-profile traces.
	Classes []ClassResult

	// Structure statistics.
	DevTLB   tlb.Stats
	PTB      device.PTBStats
	Prefetch device.PrefetchStats
	IOMMU    iommu.Stats

	// Series is the sampled time series when Config.Obs enabled the
	// periodic sampler; nil otherwise. It rides on the result so runners
	// can export per-run CSVs without re-plumbing the System.
	Series *obs.Series
}

// ClassResult is one tenant class's share of a run: throughput, drop
// and latency accounting over the class's contiguous SID range, plus
// Jain's fairness index *within* the class — the isolation metric the
// adversarial scenarios pin (a victim class staying fair and fast while
// a bully class thrashes the shared structures).
type ClassResult struct {
	Name       string
	Tenants    int
	Packets    uint64
	Drops      uint64
	Gbps       float64      // class throughput over the run's elapsed time
	AvgLatency sim.Duration // packet-weighted mean service time
	Fairness   float64      // Jain's index over the class's per-tenant mean latencies
}

// DropRate is the fraction of the class's arrival attempts dropped.
func (c ClassResult) DropRate() float64 {
	attempts := c.Packets + c.Drops
	if attempts == 0 {
		return 0
	}
	return float64(c.Drops) / float64(attempts)
}

// result assembles the Result from the System's counts and the chain's
// stage statistics at end of run. The served counts are the probe
// stages' hits: each hit answers one demand request.
func (s *System) result() Result {
	r := Result{
		Packets:  s.packets,
		Drops:    s.drops,
		Bytes:    s.bytes,
		Elapsed:  sim.Duration(s.lastCompletion),
		Requests: s.requests,
		DevTLB:   s.chain.DevTLBStats(),
		PTB:      s.chain.PTBStats(),
		Prefetch: s.chain.PrefetchStats(),
		IOMMU:    s.chain.IOMMUStats(),
	}
	r.DevTLBServed, r.PrefetchServed = r.DevTLB.Hits, r.Prefetch.Served
	if s.sampler != nil {
		r.Series = s.sampler.series
	}
	if s.lastCompletion > 0 {
		r.AchievedGbps = float64(r.Bytes*8) / sim.Duration(s.lastCompletion).Seconds() / 1e9
		r.Utilization = r.AchievedGbps / s.cfg.Params.LinkGbps
	}
	if s.missCount > 0 {
		r.AvgMissLatency = sim.Duration(s.missLatencySum) / sim.Duration(s.missCount)
	}
	// tenantLat is SID-indexed, so walking it front to back is already
	// the deterministic ascending-SID order the floating-point
	// accumulation needs: identical runs stay bitwise identical. Tenants
	// that completed no packet (count == 0) contribute nothing, matching
	// the former map which only held tenants with completions.
	var sum, sumSq float64
	active := 0
	first := true
	for sid := range s.tenantLat {
		tl := &s.tenantLat[sid]
		if tl.count == 0 {
			continue
		}
		active++
		mean := float64(tl.sum) / float64(tl.count)
		sum += mean
		sumSq += mean * mean
		m := sim.Duration(mean)
		if first || m < r.MinTenantLatency {
			r.MinTenantLatency = m
		}
		if m > r.MaxTenantLatency {
			r.MaxTenantLatency = m
		}
		if tl.worst > r.WorstPacket {
			r.WorstPacket = tl.worst
		}
		first = false
	}
	if sumSq > 0 {
		r.LatencyFairness = sum * sum / (float64(active) * sumSq)
	}
	// Per-class breakdown: the class partition is contiguous SID ranges
	// in class order, so one SID-ascending walk per class keeps the
	// floating-point accumulation order deterministic.
	if len(s.meta.Classes) > 0 {
		r.Classes = make([]ClassResult, 0, len(s.meta.Classes))
		lo := 1
		for _, cl := range s.meta.Classes {
			cr := ClassResult{Name: cl.Name, Tenants: cl.Tenants}
			var cSum, cSumSq float64
			var latSum sim.Duration
			cActive := 0
			for sid := lo; sid < lo+cl.Tenants && sid < len(s.tenantLat); sid++ {
				if s.tenantDrops != nil {
					cr.Drops += s.tenantDrops[sid]
				}
				tl := &s.tenantLat[sid]
				if tl.count == 0 {
					continue
				}
				cActive++
				cr.Packets += tl.count
				latSum += tl.sum
				mean := float64(tl.sum) / float64(tl.count)
				cSum += mean
				cSumSq += mean * mean
			}
			if cr.Packets > 0 {
				cr.AvgLatency = latSum / sim.Duration(cr.Packets)
			}
			if s.lastCompletion > 0 {
				cr.Gbps = float64(cr.Packets*uint64(s.cfg.Params.PacketBytes)*8) / sim.Duration(s.lastCompletion).Seconds() / 1e9
			}
			if cSumSq > 0 {
				cr.Fairness = cSum * cSum / (float64(cActive) * cSumSq)
			}
			r.Classes = append(r.Classes, cr)
			lo += cl.Tenants
		}
	}
	return r
}

// checkConservation asserts the run's accounting identities after the
// drain, from the counts the stages and System keep anyway: every packet
// issued its three requests, and with admission every PTB slot was
// released, every admission is a packet and every rejection a drop. The
// native path admits everything, so it never drops. Every request
// probes the DevTLB, every DevTLB miss probes the Prefetch Buffer, and
// every request neither serves reaches the chipset once.
func (s *System) checkConservation(r Result) error {
	if want := r.Packets * workload.RequestsPerPacket; r.Requests != want {
		return fmt.Errorf("core: conservation violated: %d requests != %d packets x %d",
			r.Requests, r.Packets, workload.RequestsPerPacket)
	}
	if s.cfg.TranslationOff {
		if r.Drops != 0 {
			return fmt.Errorf("core: conservation violated: %d drops on the native path", r.Drops)
		}
		return nil
	}
	if n := s.chain.PTBInUse(); n != 0 {
		return fmt.Errorf("core: conservation violated: %d PTB slots never released", n)
	}
	if r.PTB.Allocs != r.Packets || r.PTB.Rejected != r.Drops {
		return fmt.Errorf("core: conservation violated: PTB allocs/rejected %d/%d != packets/drops %d/%d",
			r.PTB.Allocs, r.PTB.Rejected, r.Packets, r.Drops)
	}
	if s.cfg.DevTLB.Sets > 0 && r.DevTLB.Lookups != r.Requests {
		return fmt.Errorf("core: conservation violated: %d DevTLB lookups != %d requests",
			r.DevTLB.Lookups, r.Requests)
	}
	if want := r.Requests - r.DevTLB.Hits; s.cfg.Prefetch != nil && r.Prefetch.Buffer.Lookups != want {
		return fmt.Errorf("core: conservation violated: %d Prefetch Buffer lookups != %d requests - %d DevTLB hits",
			r.Prefetch.Buffer.Lookups, r.Requests, r.DevTLB.Hits)
	}
	if want := r.Requests - r.DevTLBServed - r.PrefetchServed; s.missCount != want {
		return fmt.Errorf("core: conservation violated: %d chipset completions != %d requests - %d DevTLB - %d prefetch served",
			s.missCount, r.Requests, r.DevTLBServed, r.PrefetchServed)
	}
	return nil
}

// PrefetchServedShare is the fraction of all translation requests
// answered from the Prefetch Buffer (the paper reports 45% for websearch
// with 1024 tenants).
func (r Result) PrefetchServedShare() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.PrefetchServed) / float64(r.Requests)
}

// DropRate is the fraction of arrival attempts that were dropped.
func (r Result) DropRate() float64 {
	attempts := r.Packets + r.Drops
	if attempts == 0 {
		return 0
	}
	return float64(r.Drops) / float64(attempts)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%.2f Gb/s (%.1f%% of link), %d packets, %d drops, devtlb hit %.1f%%",
		r.AchievedGbps, r.Utilization*100, r.Packets, r.Drops, r.DevTLB.HitRate()*100)
}
