package mem

import "fmt"

// SID is a Source ID: the PCIe Bus/Device/Function identity of a tenant's
// virtual function. The hypervisor assigns SIDs when a VF is attached, so
// the translation hardware can key per-tenant state on it. 32 bits cover
// the million-tenant regime the scale-out experiments model (real
// hardware segments the ID space across IOMMUs at that scale).
type SID uint32

// ContextEntry is what the IOMMU's context table stores per SID: the
// domain ID and the roots of the tenant's two translation dimensions.
type ContextEntry struct {
	DID       uint32 // domain (tenant) identifier configured by the host
	GuestRoot Addr   // guest-physical address of the guest L4 table
	HostRoot  Addr   // host-physical address of the host L4 table
}

// ContextTable is the in-memory structure the IOMMU consults on a context
// cache miss. Reading an entry costs ReadAccesses memory accesses (the
// VT-d root table plus the context table itself). Entries live in a dense
// SID-indexed array — SIDs are dense by construction (1..Tenants) — so a
// lookup is one bounds check and one indexed load even at 10⁶ tenants.
type ContextTable struct {
	entries []ContextEntry // indexed by SID
	present []bool
	count   int
}

// ContextReadAccesses is the number of physical memory accesses one
// context-table lookup costs on a context-cache miss: one read of the
// root-table entry and one of the context entry.
const ContextReadAccesses = 2

// NewContextTable returns an empty context table.
func NewContextTable() *ContextTable {
	return &ContextTable{}
}

// Reserve pre-sizes the table for SIDs up to maxSID, so dense
// registration of large tenant populations does not pay repeated growth.
func (ct *ContextTable) Reserve(maxSID SID) {
	n := int(maxSID) + 1
	if cap(ct.entries) < n {
		entries := make([]ContextEntry, len(ct.entries), n)
		copy(entries, ct.entries)
		ct.entries = entries
		present := make([]bool, len(ct.present), n)
		copy(present, ct.present)
		ct.present = present
	}
}

// Set installs or replaces the entry for sid.
func (ct *ContextTable) Set(sid SID, e ContextEntry) {
	for len(ct.entries) <= int(sid) {
		ct.entries = append(ct.entries, ContextEntry{})
		ct.present = append(ct.present, false)
	}
	ct.entries[sid] = e
	if !ct.present[sid] {
		ct.present[sid] = true
		ct.count++
	}
}

// Lookup returns the entry for sid.
func (ct *ContextTable) Lookup(sid SID) (ContextEntry, error) {
	if int(sid) >= len(ct.entries) || !ct.present[sid] {
		return ContextEntry{}, fmt.Errorf("mem: no context entry for SID %#x", uint32(sid))
	}
	return ct.entries[sid], nil
}

// Len reports the number of installed entries.
func (ct *ContextTable) Len() int { return ct.count }
