package workload

import (
	"fmt"

	"hypertrio/internal/mem"
)

// AddressSpace is one tenant's I/O address space: the nested page tables
// mapping its canonical gIOVA layout, ready for the IOMMU model to walk.
type AddressSpace struct {
	SID     mem.SID
	Profile Profile
	Nested  *mem.NestedTable

	// Page bases, all in gIOVA space.
	Ring      uint64
	Mailbox   uint64
	DataPages []uint64 // 2 MB pages
	InitPages []uint64 // 4 KB pages
}

// guestPhysBase is where every tenant's guest-physical allocations start.
// Tenants may share the value: isolation comes from per-tenant host tables.
const guestPhysBase = 0x40000000

// BuildAddressSpaceLevels maps the canonical layout for one tenant into
// fresh nested page tables of the given depth (4 or 5 — §II-A's 24- vs
// 35-access two-dimensional walks) backed by hostSpace. A non-nil tenants
// registers the tables under sid.
func BuildAddressSpaceLevels(p Profile, sid mem.SID, hostSpace *mem.Space, tenants *mem.TenantTables, levels int) (*AddressSpace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nt, err := mem.NewNestedTableLevels(fmt.Sprintf("sid%d", sid), guestPhysBase, hostSpace, levels)
	if err != nil {
		return nil, err
	}
	as := &AddressSpace{SID: sid, Profile: p, Nested: nt, Ring: RingPageFor(sid), Mailbox: MailboxFor(sid)}
	if _, _, err := nt.MapIOVA(as.Ring, mem.PageShift); err != nil {
		return nil, fmt.Errorf("workload: mapping ring page: %w", err)
	}
	if _, _, err := nt.MapIOVA(as.Mailbox, mem.PageShift); err != nil {
		return nil, fmt.Errorf("workload: mapping mailbox page: %w", err)
	}
	dataShift := uint(p.DataShift())
	for i := 0; i < p.DataPages; i++ {
		iova := p.DataRegionBase() + uint64(i)<<dataShift
		if _, _, err := nt.MapIOVA(iova, dataShift); err != nil {
			return nil, fmt.Errorf("workload: mapping data page %d: %w", i, err)
		}
		as.DataPages = append(as.DataPages, iova)
	}
	for i := 0; i < p.InitPages; i++ {
		iova := uint64(InitBase) + uint64(i)*mem.PageSize
		if _, _, err := nt.MapIOVA(iova, mem.PageShift); err != nil {
			return nil, fmt.Errorf("workload: mapping init page %d: %w", i, err)
		}
		as.InitPages = append(as.InitPages, iova)
	}
	if tenants != nil {
		tenants.Set(sid, nt)
	}
	return as, nil
}

// PageShiftOf reports the page size backing a gIOVA in the canonical
// layout: 2 MB for the hugepage data region, 4 KB for the small-data,
// ring/mailbox and init regions.
func PageShiftOf(iova uint64) uint8 {
	if iova >= DataBase && iova < SmallDataBase {
		return mem.HugePageShift
	}
	return mem.PageShift
}
