// Package collector emulates HyperSIO's Log Collector stage (§IV-A).
//
// The paper records per-tenant IOMMU translation logs by running real
// workloads in nested VMs under QEMU, whose Q35 root complex offers only
// 24 PCIe slots: a single emulation run can host at most 24 tenants with
// directly assigned NICs. Hyper-tenant traces are therefore assembled
// from *multiple* runs, remapping each run's slot-local tenants to global
// Source IDs before the Trace Constructor interleaves them.
//
// This package reproduces that pipeline over the synthetic workload
// generators: Collect performs ceil(n/24) emulated runs, each producing
// up to 24 slot-local tenant logs; Merge interleaves the logs into one
// hyper-tenant trace exactly as trace.Construct would. Because 24 is a
// multiple of the guest drivers' ring-page window (workload.RingSlots),
// slot-local gIOVAs remain valid under the global SID assignment — the
// same address reuse across runs that the paper observes in its logs.
package collector

import (
	"fmt"

	"hypertrio/internal/mem"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// MaxSlotsPerRun is the Q35 root-complex limit on directly assigned
// devices per emulated server (§IV-A).
const MaxSlotsPerRun = 24

// TenantLog is one tenant's recorded packet stream from one emulated run.
type TenantLog struct {
	Run  int     // which emulated L1VM run produced the log (0-based)
	Slot int     // PCIe slot within the run (1..MaxSlotsPerRun)
	SID  mem.SID // global Source ID after remapping (run*24 + slot)

	Packets []workload.Packet
	Budget  int // translation requests available in the log
}

// Collector drives emulated log-collection runs for one benchmark.
type Collector struct {
	profile workload.Profile
	seed    int64
	scale   float64
}

// New builds a collector. scale shrinks per-tenant logs as in
// trace.Config.
func New(p workload.Profile, seed int64, scale float64) (*Collector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("collector: scale must be in (0,1], got %v", scale)
	}
	return &Collector{profile: p, seed: seed, scale: scale}, nil
}

// Runs reports how many emulation runs collecting n tenants requires.
func Runs(n int) int { return (n + MaxSlotsPerRun - 1) / MaxSlotsPerRun }

// CollectRun records the logs of a single emulated run hosting `slots`
// tenants (1..MaxSlotsPerRun).
func (c *Collector) CollectRun(run, slots int) ([]TenantLog, error) {
	if slots <= 0 || slots > MaxSlotsPerRun {
		return nil, fmt.Errorf("collector: a run hosts 1..%d tenants, got %d", MaxSlotsPerRun, slots)
	}
	logs := make([]TenantLog, 0, slots)
	for slot := 1; slot <= slots; slot++ {
		sid := mem.SID(run*MaxSlotsPerRun + slot)
		g := workload.NewGenerator(c.profile, sid, c.seed, c.scale)
		log := TenantLog{Run: run, Slot: slot, SID: sid, Budget: g.Total()}
		for {
			pkt, ok := g.Next()
			if !ok {
				break
			}
			log.Packets = append(log.Packets, pkt)
		}
		logs = append(logs, log)
	}
	return logs, nil
}

// Collect performs as many runs as needed for n tenants and returns the
// remapped logs in global SID order.
func (c *Collector) Collect(n int) ([]TenantLog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collector: tenant count must be positive, got %d", n)
	}
	var all []TenantLog
	for run := 0; run < Runs(n); run++ {
		slots := MaxSlotsPerRun
		if remaining := n - run*MaxSlotsPerRun; remaining < slots {
			slots = remaining
		}
		logs, err := c.CollectRun(run, slots)
		if err != nil {
			return nil, err
		}
		all = append(all, logs...)
	}
	return all, nil
}

// Merge is the Trace Constructor applied to recorded logs: it interleaves
// the tenants' packet streams with trace's arbiter (round-robin or random
// with the configured burst) and stops at the edge effect — the first
// exhausted log ends the trace so every modeled tenant stays active
// throughout.
func Merge(logs []TenantLog, benchmark workload.Kind, profile workload.Profile,
	iv trace.Interleave, seed int64, scale float64) (*trace.Trace, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("collector: no logs to merge")
	}
	if !benchmark.Known() {
		return nil, fmt.Errorf("collector: unknown benchmark %v", benchmark)
	}
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	for i, l := range logs {
		if int(l.SID) != i+1 {
			return nil, fmt.Errorf("collector: log %d has SID %d, want contiguous global SIDs", i, l.SID)
		}
		if len(l.Packets) == 0 {
			return nil, fmt.Errorf("collector: log for SID %d is empty", l.SID)
		}
	}
	tr := &trace.Trace{Meta: trace.Meta{
		Benchmark:  benchmark,
		Interleave: iv,
		Tenants:    len(logs),
		Seed:       seed,
		Scale:      scale,
		Profile:    profile,
	}}
	tr.Stats = make([]trace.TenantStat, len(logs))
	for i, l := range logs {
		tr.Stats[i] = trace.TenantStat{SID: l.SID, Budget: l.Budget}
	}
	arb := trace.NewArbiter(iv, seed, len(logs))
	for {
		t := arb.Next()
		st := &tr.Stats[t]
		if st.Packets == len(logs[t].Packets) {
			return tr, nil // edge effect
		}
		tr.Packets = append(tr.Packets, logs[t].Packets[st.Packets])
		st.Packets++
		st.Consumed += workload.RequestsPerPacket
	}
}
