// Package mem implements the memory substrate of the HyperSIO model:
// simulated physical address spaces, 4-level radix page tables, and the
// two-dimensional (nested) page-table walker that the IOMMU model drives.
//
// Unlike a latency-only model, the page tables here are real data
// structures: Map writes present entries into simulated table pages and
// Walk reads them back, returning both the translation and the exact
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

// Arena geometry. Table pages are fixed-size slots carved out of chunked
// []uint64 backing arrays instead of individual heap objects: a slot id
// resolves to (chunk, offset) by shifts, and a page-number directory maps
// a table page's address to its slot. Chunks are kept small (8 tables,
// 32 KB) so a Space holding only a handful of tables — every tenant's
// guest space — wastes at most a fraction of one chunk.
const (
	tablesPerChunkShift = 3 // 8 table slots (32 KB) per arena chunk
	tablesPerChunk      = 1 << tablesPerChunkShift
	chunkWords          = tablesPerChunk * EntriesPerTable

	// dirPageShift sizes one directory page: 256 page numbers, covering
	// 1 MB of address space per 1 KB of directory.
	dirPageShift = 8
	dirPageLen   = 1 << dirPageShift

	// extTag marks a directory entry that resolves into another Space's
	// arena (an aliased table page — see AliasTable).
	extTag = uint32(1) << 31
)

// dirPage is one leaf of the two-level page-number directory. Each entry
// is 0 (not a table page) or a tagged slot reference + 1.
type dirPage [dirPageLen]uint32

// extRef records one aliased table: the directory entry points here, and
// reads resolve into the source space's arena slot.
type extRef struct {
	src  *Space
	slot uint32
}

// Space is a simulated physical address space: a bump allocator for frames
// plus slab-arena storage for the page-table pages that live in it. Data
// frames are allocated but not backed — the model never reads packet
// payloads, only page-table pages.
type Space struct {
	name  string
	next  Addr
	limit Addr

	// base is the address the bump allocator started at; the page-number
	// directory is indexed relative to it.
	base Addr

	// arena holds table-page storage: fixed-size chunks of tablesPerChunk
	// slots each. Slot n lives at arena[n>>tablesPerChunkShift], word
	// offset (n & (tablesPerChunk-1)) * EntriesPerTable.
	arena  [][]uint64
	nSlots uint32

	// dir maps page number (addr-base)>>PageShift to a tagged slot
	// reference (+1; 0 = not a table page). Level 1 is a slice of leaf
	// pages, allocated only where table pages actually live.
	dir []*dirPage

	// ext holds aliased-table references (tag extTag in dir entries).
	ext []extRef

	// tableAddrs records every registered table page in registration
	// order.
	tableAddrs []Addr
}

// NewSpace creates an address space whose allocations start at base.
// limit (0 = unbounded) caps the bump allocator; exceeding it panics,
// which in practice means a workload was misconfigured.
func NewSpace(name string, base, limit Addr) *Space {
	if base%PageSize != 0 {
		panic(fmt.Sprintf("mem: space %q base %#x not page aligned", name, base))
	}
	return &Space{name: name, next: base, limit: limit, base: base}
}

// Name returns the label the space was created with.
func (s *Space) Name() string { return s.name }

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

// AllocTable reserves a 4 KB frame and registers it as a page-table page
// backed by a fresh arena slot.
func (s *Space) AllocTable() Addr {
	base := s.AllocFrame(PageShift)
	slot := s.nSlots
	s.nSlots++
	if int(slot>>tablesPerChunkShift) == len(s.arena) {
		s.arena = append(s.arena, make([]uint64, chunkWords))
	}
	s.register(base, slot+1)
	return base
}

// AliasTable registers the table page at addr as an alias of the table at
// srcAddr in space src: reads and writes through addr observe the source
// table's storage. The nested walker uses it to expose guest table pages
// through their host-physical frames, as real hardware does.
func (s *Space) AliasTable(addr Addr, src *Space, srcAddr Addr) error {
	v := src.dirLookup(srcAddr &^ (PageSize - 1))
	if v == 0 {
		return fmt.Errorf("mem: aliasing non-table address %#x in space %q", uint64(srcAddr), src.name)
	}
	slot := v - 1
	if v&extTag != 0 {
		// Chase one level: aliases always reference the owning arena.
		e := src.ext[(v&^extTag)-1]
		src, slot = e.src, e.slot
	}
	s.ext = append(s.ext, extRef{src: src, slot: slot})
	s.register(addr&^(PageSize-1), uint32(len(s.ext))|extTag)
	return nil
}

// register installs a tagged slot reference for the table page at base.
func (s *Space) register(base Addr, v uint32) {
	pn := uint64(base-s.base) >> PageShift
	l1 := pn >> dirPageShift
	for uint64(len(s.dir)) <= l1 {
		s.dir = append(s.dir, nil)
	}
	if s.dir[l1] == nil {
		s.dir[l1] = &dirPage{}
	}
	if s.dir[l1][pn&(dirPageLen-1)] != 0 {
		panic(fmt.Sprintf("mem: table %#x registered twice in space %q", uint64(base), s.name))
	}
	s.dir[l1][pn&(dirPageLen-1)] = v
	s.tableAddrs = append(s.tableAddrs, base)
}

// dirLookup returns the tagged slot reference for the table page at base,
// or 0 if no table page is registered there.
func (s *Space) dirLookup(base Addr) uint32 {
	if base < s.base {
		return 0
	}
	pn := uint64(base-s.base) >> PageShift
	l1 := pn >> dirPageShift
	if l1 >= uint64(len(s.dir)) || s.dir[l1] == nil {
		return 0
	}
	return s.dir[l1][pn&(dirPageLen-1)]
}

// slotWords returns the storage of one owned arena slot.
func (s *Space) slotWords(slot uint32) []uint64 {
	off := int(slot&(tablesPerChunk-1)) * EntriesPerTable
	return s.arena[slot>>tablesPerChunkShift][off : off+EntriesPerTable : off+EntriesPerTable]
}

// tableWords resolves the table page at base to its backing storage
// (following one alias hop if needed), or nil when base is not a
// registered table page. Resolution is pure arithmetic — two shifts and
// two indexed loads — with no map in the path.
func (s *Space) tableWords(base Addr) []uint64 {
	v := s.dirLookup(base)
	if v == 0 {
		return nil
	}
	if v&extTag == 0 {
		return s.slotWords(v - 1)
	}
	e := s.ext[(v&^extTag)-1]
	return e.src.slotWords(e.slot)
}

// TableCount reports how many page-table pages live in the space
// (aliased pages included).
func (s *Space) TableCount() int { return len(s.tableAddrs) }

// ReadEntry reads the 8-byte entry at addr, which must fall inside a
// registered table page.
func (s *Space) ReadEntry(addr Addr) (uint64, error) {
	base := addr &^ (PageSize - 1)
	w := s.tableWords(base)
	if w == nil {
		return 0, fmt.Errorf("mem: read of non-table address %#x in space %q", uint64(addr), s.name)
	}
	if addr%8 != 0 {
		return 0, fmt.Errorf("mem: misaligned entry read %#x", uint64(addr))
	}
	return w[(addr-base)/8], nil
}

// WriteEntry writes the 8-byte entry at addr inside a registered table page.
func (s *Space) WriteEntry(addr Addr, v uint64) error {
	base := addr &^ (PageSize - 1)
	w := s.tableWords(base)
	if w == nil {
		return fmt.Errorf("mem: write to non-table address %#x in space %q", uint64(addr), s.name)
	}
	if addr%8 != 0 {
		return fmt.Errorf("mem: misaligned entry write %#x", uint64(addr))
	}
	w[(addr-base)/8] = v
	return nil
}
