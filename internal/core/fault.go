package core

import (
	"fmt"

	"hypertrio/internal/fault"
	"hypertrio/internal/mem"
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
// page's next full walk observes the new frame. Every tenant of the
// SID's ring slot walks the same template table, so all of them see it.
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
