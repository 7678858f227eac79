package mem

// TenantTables is the dense SID-indexed collection of per-tenant nested
// page tables a simulation walks. SIDs are dense by construction
// (1..Tenants), so a slice replaces the former map: a hot-path lookup is
// one bounds check and one indexed load, and the container costs one
// pointer per tenant instead of map buckets — 8 MB at 10⁶ tenants.
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

// Len reports how many SIDs have registered tables.
func (t *TenantTables) Len() int {
	n := 0
	for _, nt := range t.byID {
		if nt != nil {
			n++
		}
	}
	return n
}
