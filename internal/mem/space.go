// Package mem implements the memory substrate of the HyperSIO model:
// simulated physical address spaces, 4-level radix page tables, and the
// two-dimensional (nested) page-table walker that the IOMMU model drives.
//
// Unlike a latency-only model, the page tables here are real data
// structures: Map writes present entries into simulated table pages and
// a walk reads them back, returning both the translation and the exact
// sequence of physical accesses the walk performed. The performance model
// charges DRAM latency per returned access, and tests verify that
// translations round-trip against the allocator.
package mem

import "fmt"

// Architectural constants for x86-64-style 4-level paging.
const (
	PageShift      = 12 // 4 KB base pages
	PageSize       = 1 << PageShift
	HugePageShift  = 21 // 2 MB huge pages
	HugePageSize   = 1 << HugePageShift
	GiantPageShift = 30 // 1 GB pages (supported by the walker, unused by workloads)

	// EntriesPerTable is the fan-out of one page-table page.
	EntriesPerTable = 512

	// Levels in a full walk: L4 -> L3 -> L2 -> L1.
	Levels = 4
)

// Addr is an address in some simulated physical address space (host
// physical or guest physical, depending on the Space it belongs to).
type Addr uint64

// Page-table entry layout (a simplified x86-64 PTE):
//
//	bit 0      present
//	bit 7      page size (PS): entry maps a huge/giant page at L2/L3
//	bits 12..  physical frame address
const (
	ptePresent  = 1 << 0
	ptePageSize = 1 << 7
	pteAddrMask = ^uint64(PageSize - 1)
)

// Space is a simulated physical address space: a bump allocator for frames
// plus storage for the page-table pages that live in it. Data frames are
// allocated but not backed — the model never reads packet payloads, only
// page-table pages. A run shares a few template tables across all its
// tenants (TenantTables), so a space holds tens of table pages and a map
// keyed by page address is all the indexing it needs.
type Space struct {
	name  string
	next  Addr
	limit Addr

	// tables maps each registered table page's address to its storage;
	// an aliased page maps to its source page's storage.
	tables map[Addr]*[EntriesPerTable]uint64

	// tableAddrs records every registered table page in registration
	// order, the deterministic order NestedTable adopts guest tables in.
	tableAddrs []Addr
}

// NewSpace creates an address space whose allocations start at base.
// limit (0 = unbounded) caps the bump allocator; exceeding it panics,
// which in practice means a workload was misconfigured.
func NewSpace(name string, base, limit Addr) *Space {
	if base%PageSize != 0 {
		panic(fmt.Sprintf("mem: space %q base %#x not page aligned", name, base))
	}
	return &Space{name: name, next: base, limit: limit, tables: make(map[Addr]*[EntriesPerTable]uint64)}
}

// AllocFrame reserves one naturally aligned frame of size 1<<shift and
// returns its base address.
func (s *Space) AllocFrame(shift uint) Addr {
	size := Addr(1) << shift
	base := (s.next + size - 1) &^ (size - 1)
	s.next = base + size
	if s.limit != 0 && s.next > s.limit {
		panic(fmt.Sprintf("mem: space %q exhausted (limit %#x)", s.name, s.limit))
	}
	return base
}

// AllocTable reserves a 4 KB frame and registers it as a zeroed
// page-table page.
func (s *Space) AllocTable() Addr {
	base := s.AllocFrame(PageShift)
	s.register(base, new([EntriesPerTable]uint64))
	return base
}

// AliasTable registers the table page at addr as an alias of the table at
// srcAddr in space src: reads and writes through addr observe the source
// table's storage. The nested walker uses it to expose guest table pages
// through their host-physical frames, as real hardware does.
func (s *Space) AliasTable(addr Addr, src *Space, srcAddr Addr) error {
	w := src.tables[srcAddr&^(PageSize-1)]
	if w == nil {
		return fmt.Errorf("mem: aliasing non-table address %#x in space %q", uint64(srcAddr), src.name)
	}
	s.register(addr&^(PageSize-1), w)
	return nil
}

// register installs w as the storage of the table page at base.
func (s *Space) register(base Addr, w *[EntriesPerTable]uint64) {
	if s.tables[base] != nil {
		panic(fmt.Sprintf("mem: table %#x registered twice in space %q", uint64(base), s.name))
	}
	s.tables[base] = w
	s.tableAddrs = append(s.tableAddrs, base)
}

// TableCount reports how many page-table pages live in the space
// (aliased pages included).
func (s *Space) TableCount() int { return len(s.tableAddrs) }

// ReadEntry reads the 8-byte entry at addr, which must fall inside a
// registered table page.
func (s *Space) ReadEntry(addr Addr) (uint64, error) {
	w := s.tables[addr&^(PageSize-1)]
	if w == nil {
		return 0, fmt.Errorf("mem: read of non-table address %#x in space %q", uint64(addr), s.name)
	}
	if addr%8 != 0 {
		return 0, fmt.Errorf("mem: misaligned entry read %#x", uint64(addr))
	}
	return w[addr%PageSize/8], nil
}

// WriteEntry writes the 8-byte entry at addr inside a registered table page.
func (s *Space) WriteEntry(addr Addr, v uint64) error {
	w := s.tables[addr&^(PageSize-1)]
	if w == nil {
		return fmt.Errorf("mem: write to non-table address %#x in space %q", uint64(addr), s.name)
	}
	if addr%8 != 0 {
		return fmt.Errorf("mem: misaligned entry write %#x", uint64(addr))
	}
	w[addr%PageSize/8] = v
	return nil
}
