package core

import (
	"fmt"

	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// System is the fault injector's Target: scripted events apply to the
// composed chain exactly like the model's own driver-unmap invalidations
// do, and remaps rewrite the same page tables the chipset walks.

// InvalidatePage propagates one page's invalidation through every stage.
func (s *System) InvalidatePage(sid mem.SID, iova uint64, shift uint8) {
	s.chain.Invalidate(sid, iova, shift)
}

// InvalidateTenant drops every stage's cached state for one SID.
func (s *System) InvalidateTenant(sid mem.SID) int {
	return s.chain.InvalidateSID(sid)
}

// FlushAll empties every translation cache in the datapath.
func (s *System) FlushAll() int {
	return s.chain.FlushAll()
}

// Remap rewrites the page's guest mapping to a fresh physical frame (the
// guest recycling a buffer mid-flight). The mapping's leaf is overwritten
// in place, so in-flight partial-walk resume points stay coherent and the
// page's next full walk observes the new frame.
func (s *System) Remap(sid mem.SID, iova uint64, shift uint8) error {
	nt := s.tenants.Get(sid)
	if nt == nil {
		return fmt.Errorf("core: remap for unknown SID %d", sid)
	}
	_, _, err := nt.MapIOVA(iova, uint(shift))
	return err
}

// FaultStats returns the injector's accounting when a fault plan is
// loaded; ok is false on a fault-free run.
func (s *System) FaultStats() (fault.Stats, bool) {
	if s.injector == nil {
		return fault.Stats{}, false
	}
	return s.injector.Stats(), true
}

// verifyInvariants cross-checks the composed invariant checker (if any)
// against the system's own packet accounting after the run drains. A
// chain without the checker verifies nothing and costs nothing.
func (s *System) verifyInvariants(r Result) error {
	iv := s.chain.Invariants()
	if iv == nil {
		return nil
	}
	if err := iv.CheckFinal(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	rep := iv.Report()
	if rep.Attempts != r.Packets+r.Drops {
		return fmt.Errorf("core: invariant violated: %d admission attempts != %d packets + %d drops",
			rep.Attempts, r.Packets, r.Drops)
	}
	if rep.Admitted != r.Packets || rep.Rejected != r.Drops {
		return fmt.Errorf("core: invariant violated: admitted/rejected %d/%d != packets/drops %d/%d",
			rep.Admitted, rep.Rejected, r.Packets, r.Drops)
	}
	if want := r.Packets * workload.RequestsPerPacket; r.Requests != want {
		return fmt.Errorf("core: invariant violated: %d requests != %d packets x %d",
			r.Requests, r.Packets, workload.RequestsPerPacket)
	}
	return nil
}
