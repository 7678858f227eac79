package mem

// SID is a Source ID: the PCIe Bus/Device/Function identity of a tenant's
// virtual function. The hypervisor assigns SIDs when a VF is attached, so
// the translation hardware can key per-tenant state on it. 32 bits cover
// the million-tenant regime the scale-out experiments model (real
// hardware segments the ID space across IOMMUs at that scale).
type SID uint32

// TenantTables is the dense SID-indexed collection of per-tenant nested
// page tables a simulation walks. It is the model's only per-SID
// registry: the IOMMU's context-table read on a context-cache miss
// resolves here. SIDs are dense by construction (1..Tenants), so a
// hot-path lookup is one bounds check and one indexed load, and the
// container costs one pointer per tenant — 8 MB at 10⁶ tenants.
//
// Distinct SIDs may share one *NestedTable: all tenants run the same
// guest image and so build identical table structures, and the model's
// outcomes depend only on walk shape, not on which physical frames back
// it. core.System registers one template table per ring slot and class
// for every tenant, in faulted runs too: a remap rewrites a template's
// leaf in place, keeping the page size and so every walk's shape.
type TenantTables struct {
	byID []*NestedTable // indexed by SID; nil = unregistered
}

// NewTenantTables returns an empty collection pre-sized for SIDs up to
// maxSID.
func NewTenantTables(maxSID SID) *TenantTables {
	return &TenantTables{byID: make([]*NestedTable, int(maxSID)+1)}
}

// Set registers the nested tables for sid, growing the index as needed.
func (t *TenantTables) Set(sid SID, nt *NestedTable) {
	for len(t.byID) <= int(sid) {
		t.byID = append(t.byID, nil)
	}
	t.byID[sid] = nt
}

// Get returns the nested tables for sid, or nil when none is registered.
func (t *TenantTables) Get(sid SID) *NestedTable {
	if t == nil || int(sid) >= len(t.byID) {
		return nil
	}
	return t.byID[sid]
}
