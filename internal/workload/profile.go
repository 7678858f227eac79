// Package workload models per-tenant gIOVA request streams for the three
// I/O-intensive benchmarks the paper evaluates (iperf3, CloudSuite
// mediastream and websearch), replacing HyperSIO's QEMU-based log
// collector with synthetic generators calibrated to the paper's own
// characterization (§IV-D, Fig. 8, Table III):
//
//   - every packet triggers three translations: ring-buffer pointer,
//     data buffer, and interrupt-mailbox notification;
//   - one hot 4 KB page holds the ring buffer and is touched on every
//     packet (it is seen ~30x more often than any data page);
//   - data buffers live in 2 MB huge pages that are walked sequentially
//     ~1500 accesses at a time in a periodic ring, the driver unmapping a
//     page when its buffers are consumed;
//   - ~70 4 KB pages are touched a few times right after NIC init;
//   - all tenants run the same guest OS and driver, so they use the SAME
//     gIOVA values — the cross-tenant conflict at the heart of the paper.
package workload

import (
	"fmt"

	"hypertrio/internal/mem"
)

// Kind identifies one of the paper's three benchmarks.
type Kind uint8

const (
	// Iperf3 is the throughput-oriented network-stack stressor: the most
	// regular stream, with a small active translation set (8).
	Iperf3 Kind = iota
	// Mediastream is CloudSuite 3's video-serving benchmark: long
	// sequential runs over a large buffer set (active set 32).
	Mediastream
	// Websearch is CloudSuite 3's index-serving benchmark: the least
	// regular stream (active set 36).
	Websearch
)

// Kinds lists all benchmarks in presentation order.
var Kinds = []Kind{Iperf3, Mediastream, Websearch}

func (k Kind) String() string {
	switch k {
	case Iperf3:
		return "iperf3"
	case Mediastream:
		return "mediastream"
	case Websearch:
		return "websearch"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Known reports whether k is one of the calibrated benchmarks.
func (k Kind) Known() bool { return k <= Websearch }

// ParseKind converts a benchmark name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "iperf3", "iperf":
		return Iperf3, nil
	case "mediastream", "media":
		return Mediastream, nil
	case "websearch", "web":
		return Websearch, nil
	}
	return 0, fmt.Errorf("workload: unknown benchmark %q", s)
}

// Canonical gIOVA layout, shared by every tenant (same guest OS and
// driver version — §IV-D multi-tenant observation): tenants draw their
// ring/mailbox pages from the same small window and use the same
// data-buffer and init regions, so identical page addresses across
// tenants are common (the conflict behaviour the paper studies) without
// being universal. Values follow the paper's recorded ranges.
const (
	// RingIOVA is the bottom of the small window of 4 KB pages holding
	// ring-buffer descriptors; one page per tenant, translated for every
	// arriving packet (Fig. 8a group 1).
	RingIOVA = 0x34800000
	// RingSlots is how many distinct ring-page addresses guest drivers
	// allocate across tenants; tenants whose SIDs are congruent modulo
	// RingSlots use the same gIOVA ring page.
	RingSlots = 8
	// DataBase is the bottom of the 2 MB data-buffer region
	// (Fig. 8a group 2: 0xbbe00000–0xbfe00000), identical across tenants.
	DataBase = 0xbbe00000
	// SmallDataBase is the bottom of the 4 KB data-buffer region used by
	// guests that run without hugepages (Profile.SmallData) — the
	// configuration of the paper's §II-B hardware case studies, where
	// buffers are recycled every couple of packets.
	SmallDataBase = 0xe0000000
	// InitBase is the bottom of the 4 KB init-time page region
	// (Fig. 8a group 3: 0xf0000000–0xffffffff).
	InitBase = 0xf0000000
)

// RingPageFor returns the tenant's ring-descriptor page base: a slot in
// the shared ring window, so distinct tenants frequently share the exact
// address.
func RingPageFor(sid mem.SID) uint64 {
	return RingIOVA + uint64(sid%RingSlots)*0x2000
}

// MailboxFor returns the tenant's interrupt-mailbox page, adjacent to
// its ring page.
func MailboxFor(sid mem.SID) uint64 { return RingPageFor(sid) + 0x1000 }

// Profile is the per-benchmark calibration of the stream generator.
type Profile struct {
	Kind Kind

	// DataPages is the number of 2 MB data-buffer pages the driver
	// cycles through (the paper observed 32 for mediastream).
	DataPages int
	// Streams is the number of concurrently live buffer cursors; the
	// active translation set is Streams + 2 (ring + mailbox), matching
	// the paper's measured active sets of 8/32/36 (§V-C). Stream 0 is
	// the primary stream and receives most packets (Fig. 8b's long
	// sequential runs); the rest are touched in the background at
	// BackgroundChance, keeping their pages live.
	Streams int
	// BackgroundChance is the per-packet probability (in 1/256 units)
	// of touching a background stream instead of the primary one.
	BackgroundChance uint8
	// RunLength is how many packets touch one data page before the
	// stream's cursor advances to the next page and the driver unmaps
	// the old one (~1500 in Fig. 8b).
	RunLength int
	// InitPages / InitTouches describe the startup-only 4 KB pages
	// (group 3): InitPages pages touched InitTouches times each before
	// steady state.
	InitPages   int
	InitTouches int
	// JumpChance is the per-run probability (in 1/256 units) that a
	// stream jumps to a random page instead of the next one — the
	// irregularity that separates websearch from iperf3.
	JumpChance uint8

	// MinRequests/MaxRequests bound the per-tenant translation-request
	// budget at scale 1.0 (Table III).
	MinRequests int
	MaxRequests int

	// SmallData switches the tenant's data buffers from 2 MB huge pages
	// to 4 KB pages (guests without hugepage-backed buffers, as in the
	// paper's hardware case studies). DataPages then counts 4 KB pages
	// and RunLength is typically 2-3 packets (a 1500 B packet fills most
	// of a 4 KB buffer), so the driver unmaps pages at a much higher
	// rate.
	SmallData bool
}

// DataShift returns the page-size shift of the profile's data buffers.
func (p Profile) DataShift() uint8 {
	if p.SmallData {
		return mem.PageShift
	}
	return mem.HugePageShift
}

// maxInitPages is how many 4 KB init pages fit between InitBase and 4 GiB.
const maxInitPages = (1<<32 - InitBase) >> mem.PageShift

// maxDataPages is how many of the profile's data pages fit in its data
// region: DataBase..SmallDataBase for 2 MB pages (289),
// SmallDataBase..InitBase for 4 KB pages (65,536).
func (p Profile) maxDataPages() int {
	if p.SmallData {
		return (InitBase - SmallDataBase) >> mem.PageShift
	}
	return (SmallDataBase - DataBase) >> mem.HugePageShift
}

// DataRegionBase returns the bottom of the profile's data-buffer region.
func (p Profile) DataRegionBase() uint64 {
	if p.SmallData {
		return SmallDataBase
	}
	return DataBase
}

// SmallDataVariant converts a calibrated profile to its 4 KB-buffer
// equivalent: the driver cycles a ring of 4 KB buffers, recycling each
// mapped buffer a few dozen times before unmapping it (buffer pools),
// so the per-tenant hot set grows and unmap churn rises relative to the
// hugepage-backed profiles.
func SmallDataVariant(p Profile) Profile {
	p.SmallData = true
	p.DataPages = 512
	p.RunLength = 32
	return p
}

// ProfileFor returns the calibrated profile for a benchmark.
func ProfileFor(k Kind) Profile {
	switch k {
	case Iperf3:
		return Profile{
			Kind: Iperf3, DataPages: 16, Streams: 6, BackgroundChance: 13,
			RunLength: 1400, InitPages: 20, InitTouches: 3, JumpChance: 0,
			MinRequests: 68079, MaxRequests: 108510,
		}
	case Mediastream:
		return Profile{
			Kind: Mediastream, DataPages: 32, Streams: 30, BackgroundChance: 26,
			RunLength: 1400, InitPages: 70, InitTouches: 3, JumpChance: 5,
			MinRequests: 5520, MaxRequests: 73657,
		}
	case Websearch:
		return Profile{
			Kind: Websearch, DataPages: 40, Streams: 34, BackgroundChance: 64,
			RunLength: 600, InitPages: 40, InitTouches: 3, JumpChance: 38,
			MinRequests: 43362, MaxRequests: 108513,
		}
	}
	panic(fmt.Sprintf("workload: no profile for kind %d", k))
}

// ActiveSet returns the size of the profile's active translation set:
// the number of fully-associative DevTLB entries needed for full link
// utilization with a single tenant (§V-C).
func (p Profile) ActiveSet() int { return p.Streams + 2 }

// Validate reports configuration errors. Page counts are capped at their
// layout windows, so a hostile profile cannot make BuildAddressSpaceLevels
// map more pages than the canonical layout holds.
func (p Profile) Validate() error {
	switch {
	case p.DataPages <= 0 || p.DataPages > p.maxDataPages():
		return fmt.Errorf("workload: %s: DataPages must be in 1..%d", p.Kind, p.maxDataPages())
	case p.Streams <= 0 || p.Streams > p.DataPages:
		return fmt.Errorf("workload: %s: Streams must be in 1..DataPages", p.Kind)
	case p.RunLength <= 0:
		return fmt.Errorf("workload: %s: RunLength must be positive", p.Kind)
	case p.InitPages < 0 || p.InitTouches < 0:
		return fmt.Errorf("workload: %s: init parameters must be non-negative", p.Kind)
	case p.InitPages > maxInitPages:
		return fmt.Errorf("workload: %s: InitPages must be at most %d", p.Kind, maxInitPages)
	case p.MinRequests <= 0 || p.MaxRequests < p.MinRequests:
		return fmt.Errorf("workload: %s: request bounds invalid", p.Kind)
	}
	return nil
}
