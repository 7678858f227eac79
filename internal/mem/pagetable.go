package mem

import "fmt"

// PageTable is a 4- or 5-level radix page table whose table pages live
// in a Space. Entries are written by Map and read back by WalkFromInto,
// so a walk is a genuine traversal of simulated table pages, not a lookup
// of the translation.
// 5-level tables model the paper's second walk-cost data point (§II-A: a
// two-dimensional walk costs 24 memory accesses with 4-level tables and
// 35 with 5-level ones).
type PageTable struct {
	space  *Space
	root   Addr
	levels int

	// mutations counts Map/Unmap calls. It only ever grows, so an equal
	// snapshot proves the table is unchanged — the validity check behind
	// the IOMMU's walk-memoization layer (see NestedTable.Epoch).
	mutations uint64
}

// NewPageTableLevels allocates a root table page in space for a table
// with the given depth (4 or 5).
func NewPageTableLevels(space *Space, levels int) *PageTable {
	if levels != 4 && levels != 5 {
		panic(fmt.Sprintf("mem: unsupported page-table depth %d", levels))
	}
	return &PageTable{space: space, root: space.AllocTable(), levels: levels}
}

// Root returns the physical address of the top-level table page.
func (pt *PageTable) Root() Addr { return pt.root }

// levelShift returns the VA shift for a level (4 -> 39, 3 -> 30, 2 -> 21, 1 -> 12).
func levelShift(level int) uint { return uint(PageShift + 9*(level-1)) }

// index extracts the table index for a level from a virtual address.
func index(va uint64, level int) uint64 {
	return (va >> levelShift(level)) & (EntriesPerTable - 1)
}

// leafLevel maps a page-size shift to the level at which its leaf entry
// sits: 12 -> L1, 21 -> L2, 30 -> L3.
func leafLevel(pageShift uint) (int, error) {
	switch pageShift {
	case PageShift:
		return 1, nil
	case HugePageShift:
		return 2, nil
	case GiantPageShift:
		return 3, nil
	}
	return 0, fmt.Errorf("mem: unsupported page shift %d", pageShift)
}

// Map installs a translation va -> pa for a page of size 1<<pageShift,
// creating intermediate table pages as needed. Both va and pa must be
// aligned to the page size. Remapping an existing leaf overwrites it;
// mapping a huge page over existing finer tables is rejected.
func (pt *PageTable) Map(va, pa uint64, pageShift uint) error {
	leaf, err := leafLevel(pageShift)
	if err != nil {
		return err
	}
	pt.mutations++
	mask := uint64(1)<<pageShift - 1
	if va&mask != 0 {
		return fmt.Errorf("mem: va %#x not aligned to %d-byte page", va, 1<<pageShift)
	}
	if pa&mask != 0 {
		return fmt.Errorf("mem: pa %#x not aligned to %d-byte page", pa, 1<<pageShift)
	}
	cur := pt.root
	for level := pt.levels; level > leaf; level-- {
		entryAddr := cur + Addr(index(va, level)*8)
		e, err := pt.space.ReadEntry(entryAddr)
		if err != nil {
			return err
		}
		if e&ptePresent == 0 {
			next := pt.space.AllocTable()
			if err := pt.space.WriteEntry(entryAddr, uint64(next)&pteAddrMask|ptePresent); err != nil {
				return err
			}
			cur = next
			continue
		}
		if e&ptePageSize != 0 {
			return fmt.Errorf("mem: va %#x already mapped by a level-%d leaf", va, level)
		}
		cur = Addr(e & pteAddrMask)
	}
	leafEntry := pa&^mask | ptePresent
	if leaf > 1 {
		leafEntry |= ptePageSize
	}
	return pt.space.WriteEntry(cur+Addr(index(va, leaf)*8), leafEntry)
}

// refuseTableOverwrite returns an error when the entry a page of size
// 1<<pageShift at va would occupy points at a finer table, so mapping the
// page would detach that table. Map allows the overwrite; the nested
// table refuses it, because the chipset's page-walk caches resume walks
// at table addresses they cached. Read failures are left for Map to
// report.
func (pt *PageTable) refuseTableOverwrite(va uint64, pageShift uint) error {
	leaf, err := leafLevel(pageShift)
	if err != nil || leaf == 1 {
		return nil
	}
	cur := pt.root
	for level := pt.levels; level >= leaf; level-- {
		e, err := pt.space.ReadEntry(cur + Addr(index(va, level)*8))
		if err != nil || e&ptePresent == 0 || e&ptePageSize != 0 {
			return nil
		}
		cur = Addr(e & pteAddrMask)
	}
	return fmt.Errorf("mem: va %#x already holds a level-%d table", va, leaf-1)
}

// Access records one physical read performed during a walk.
type Access struct {
	Addr  Addr // entry address that was read
	Level int  // table level the entry belonged to (4..1)
}

// WalkResult is the outcome of a single-dimensional page-table walk.
type WalkResult struct {
	PA        uint64   // translated physical address (page base + offset)
	PageShift uint     // size of the mapping that was hit
	Accesses  []Access // entry reads, in order
}

// ErrNotMapped is returned (wrapped) when a walk finds a non-present entry.
type NotMappedError struct {
	VA    uint64
	Level int
}

func (e *NotMappedError) Error() string {
	return fmt.Sprintf("mem: va %#x not mapped (level %d entry not present)", e.VA, e.Level)
}

// WalkFromInto translates va by reading entries from simulated memory,
// starting at level startLevel in table page startTable (the depth and
// Root for a full walk). It appends the walk's accesses onto acc, which
// callers on the hot path pass as a reused scratch buffer (acc[:0]) so a
// warm walk performs no allocation; the result's Accesses is the
// extended slice.
func (pt *PageTable) WalkFromInto(va uint64, startLevel int, startTable Addr, acc []Access) (WalkResult, error) {
	res := WalkResult{Accesses: acc}
	cur := startTable
	for level := startLevel; level >= 1; level-- {
		entryAddr := cur + Addr(index(va, level)*8)
		e, err := pt.space.ReadEntry(entryAddr)
		if err != nil {
			return res, err
		}
		res.Accesses = append(res.Accesses, Access{Addr: entryAddr, Level: level})
		if e&ptePresent == 0 {
			return res, &NotMappedError{VA: va, Level: level}
		}
		if level == 1 || e&ptePageSize != 0 {
			shift := levelShift(level)
			res.PageShift = shift
			res.PA = e&pteAddrMask&^(uint64(1)<<shift-1) | va&(uint64(1)<<shift-1)
			return res, nil
		}
		cur = Addr(e & pteAddrMask)
	}
	return res, fmt.Errorf("mem: walk of %#x fell through", va)
}

// Unmap clears the leaf entry for va at the given page size, returning
// whether a mapping was present. Intermediate table pages are left in
// place (as real kernels usually do); a subsequent Map of the same
// region reuses them. A huge-page unmap where a finer table stands is
// an error, so Unmap never detaches a table page.
func (pt *PageTable) Unmap(va uint64, pageShift uint) (bool, error) {
	leaf, err := leafLevel(pageShift)
	if err != nil {
		return false, err
	}
	pt.mutations++
	mask := uint64(1)<<pageShift - 1
	if va&mask != 0 {
		return false, fmt.Errorf("mem: unmap va %#x not aligned to %d-byte page", va, 1<<pageShift)
	}
	cur := pt.root
	for level := pt.levels; level > leaf; level-- {
		e, err := pt.space.ReadEntry(cur + Addr(index(va, level)*8))
		if err != nil {
			return false, err
		}
		if e&ptePresent == 0 {
			return false, nil
		}
		if e&ptePageSize != 0 {
			return false, fmt.Errorf("mem: unmap %#x at shift %d crosses a level-%d leaf", va, pageShift, level)
		}
		cur = Addr(e & pteAddrMask)
	}
	entryAddr := cur + Addr(index(va, leaf)*8)
	e, err := pt.space.ReadEntry(entryAddr)
	if err != nil {
		return false, err
	}
	if e&ptePresent == 0 {
		return false, nil
	}
	if e&ptePageSize == 0 && leaf > 1 {
		return false, fmt.Errorf("mem: unmap %#x at shift %d would drop a level-%d table", va, pageShift, leaf-1)
	}
	return true, pt.space.WriteEntry(entryAddr, 0)
}
