package workload

import (
	"testing"
	"testing/quick"

	"hypertrio/internal/mem"
)

func TestProfilesValid(t *testing.T) {
	for _, k := range Kinds {
		p := ProfileFor(k)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

// TestProfileValidateCapsPages pins the layout-window caps: each page
// count is accepted at its window's size and rejected one past it.
// Validate only inspects the fields, so no row maps anything.
func TestProfileValidateCapsPages(t *testing.T) {
	huge := ProfileFor(Iperf3)
	small := SmallDataVariant(huge)
	for _, c := range []struct {
		name string
		p    Profile
		set  func(*Profile, int)
		max  int
	}{
		{"2 MB data pages", huge, func(p *Profile, n int) { p.DataPages = n }, 289},
		{"4 KB data pages", small, func(p *Profile, n int) { p.DataPages = n }, 65536},
		{"init pages", huge, func(p *Profile, n int) { p.InitPages = n }, 65536},
	} {
		p := c.p
		c.set(&p, c.max)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %d rejected: %v", c.name, c.max, err)
		}
		c.set(&p, c.max+1)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: %d accepted", c.name, c.max+1)
		}
	}
}

func TestActiveSetsMatchPaper(t *testing.T) {
	// §V-C: active translation sets of 8 (iperf3), 32 (mediastream),
	// 36 (websearch).
	want := map[Kind]int{Iperf3: 8, Mediastream: 32, Websearch: 36}
	for k, n := range want {
		if got := ProfileFor(k).ActiveSet(); got != n {
			t.Errorf("%s active set = %d, want %d", k, got, n)
		}
	}
}

func TestTableIIIBudgets(t *testing.T) {
	// Table III request bounds at scale 1.0.
	cases := map[Kind][2]int{
		Iperf3:      {68079, 108510},
		Mediastream: {5520, 73657},
		Websearch:   {43362, 108513},
	}
	for k, b := range cases {
		p := ProfileFor(k)
		if p.MinRequests != b[0] || p.MaxRequests != b[1] {
			t.Errorf("%s budgets = [%d,%d], want %v", k, p.MinRequests, p.MaxRequests, b)
		}
		for sid := mem.SID(0); sid < 64; sid++ {
			n := BudgetFor(p, sid, 1, 1.0)
			if n < b[0] || n > b[1] {
				t.Fatalf("%s sid %d budget %d outside Table III bounds %v", k, sid, n, b)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	collect := func() []Packet {
		g := NewGenerator(ProfileFor(Websearch), 7, 42, 0.01)
		var out []Packet
		for {
			p, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorBudgetAccounting(t *testing.T) {
	g := NewGenerator(ProfileFor(Iperf3), 3, 1, 0.01)
	total := g.Total()
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		n++
	}
	if n != total/RequestsPerPacket {
		t.Fatalf("emitted %d packets, want %d", n, total/RequestsPerPacket)
	}
	if g.Remaining() >= RequestsPerPacket {
		t.Fatalf("generator stopped with %d requests left", g.Remaining())
	}
	if g.Emitted() != n {
		t.Fatalf("Emitted() = %d, want %d", g.Emitted(), n)
	}
}

func TestGeneratorAddressesAreCanonical(t *testing.T) {
	for _, k := range Kinds {
		p := ProfileFor(k)
		g := NewGenerator(p, 5, 9, 0.02)
		for {
			pkt, ok := g.Next()
			if !ok {
				break
			}
			ringBase := RingPageFor(5)
			if pkt.Ring < ringBase || pkt.Ring >= ringBase+mem.PageSize {
				t.Fatalf("%s: ring gIOVA %#x outside ring page %#x", k, pkt.Ring, ringBase)
			}
			if pkt.Mailbox != MailboxFor(5) {
				t.Fatalf("%s: mailbox gIOVA %#x", k, pkt.Mailbox)
			}
			dataOK := pkt.Data >= DataBase && pkt.Data < DataBase+uint64(p.DataPages)*mem.HugePageSize
			initOK := pkt.Data >= InitBase && pkt.Data < InitBase+uint64(p.InitPages)*mem.PageSize
			if !dataOK && !initOK {
				t.Fatalf("%s: data gIOVA %#x outside data and init regions", k, pkt.Data)
			}
			if pkt.UnmapIOVA != 0 && PageShiftOf(pkt.UnmapIOVA) != pkt.UnmapShift {
				t.Fatalf("%s: unmap shift %d inconsistent for %#x", k, pkt.UnmapShift, pkt.UnmapIOVA)
			}
		}
	}
}

func TestRingPageHottestAndPeriodicity(t *testing.T) {
	// Fig. 8a: the ring page is by far the most frequently accessed,
	// because every packet touches it while data accesses spread over
	// the page ring. A shortened RunLength lets the ring wrap several
	// times within one test-sized log.
	p := ProfileFor(Mediastream)
	p.RunLength = 100
	g := NewGenerator(p, 2, 4, 0.5)
	pageCount := map[uint64]int{}
	packets := 0
	for {
		pkt, ok := g.Next()
		if !ok {
			break
		}
		packets++
		pageCount[pkt.Data>>mem.HugePageShift]++
	}
	ringTouches := packets // ring page touched every packet by construction
	maxData := 0
	for page, n := range pageCount {
		if page<<mem.HugePageShift >= DataBase && page<<mem.HugePageShift < InitBase && n > maxData {
			maxData = n
		}
	}
	if maxData == 0 {
		t.Fatal("no data-page accesses generated")
	}
	if ringTouches < 10*maxData {
		t.Fatalf("ring page (%d) not much hotter than hottest data page (%d)", ringTouches, maxData)
	}
}

func TestUnmapsEmittedOnPageAdvance(t *testing.T) {
	g := NewGenerator(ProfileFor(Websearch), 1, 3, 0.2)
	unmaps := 0
	for {
		pkt, ok := g.Next()
		if !ok {
			break
		}
		if pkt.UnmapIOVA != 0 {
			unmaps++
			if pkt.UnmapShift != mem.HugePageShift {
				t.Fatalf("unmap of %#x has shift %d", pkt.UnmapIOVA, pkt.UnmapShift)
			}
		}
	}
	if unmaps == 0 {
		t.Fatal("no unmap markers emitted over a long run")
	}
}

func TestBuildAddressSpace(t *testing.T) {
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	tenants := mem.NewTenantTables(1)
	p := ProfileFor(Mediastream)
	as, err := BuildAddressSpaceLevels(p, 9, host, tenants, mem.Levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.DataPages) != p.DataPages || len(as.InitPages) != p.InitPages {
		t.Fatalf("page counts: data=%d init=%d", len(as.DataPages), len(as.InitPages))
	}
	// Every generated gIOVA must be walkable to a valid hPA.
	g := NewGenerator(p, 9, 7, 0.005)
	seen := 0
	for {
		pkt, ok := g.Next()
		if !ok || seen > 2000 {
			break
		}
		seen++
		for _, iova := range []uint64{pkt.Ring, pkt.Data, pkt.Mailbox} {
			res, err := as.Nested.WalkInto(iova, nil)
			if err != nil {
				t.Fatalf("walk %#x: %v", iova, err)
			}
			if res.HPA == 0 {
				t.Fatalf("walk %#x returned zero hPA", iova)
			}
		}
	}
	// The tables are registered under the SID, and only there.
	if tenants.Get(9) != as.Nested {
		t.Fatal("SID 9 not registered with its nested table")
	}
	if tenants.Get(1) != nil || tenants.Get(8) != nil {
		t.Fatal("tables registered under another SID")
	}
}

func TestTenantsShareIOVAsButNotHPAs(t *testing.T) {
	// §IV-D: independent tenants use the same gIOVA pages; their hPAs
	// must differ (per-tenant host tables provide isolation).
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	p := ProfileFor(Iperf3)
	a, err := BuildAddressSpaceLevels(p, 1, host, nil, mem.Levels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildAddressSpaceLevels(p, 2, host, nil, mem.Levels)
	if err != nil {
		t.Fatal(err)
	}
	if a.DataPages[0] != b.DataPages[0] {
		t.Fatal("tenants should share the canonical data-buffer layout")
	}
	// SIDs 1 and 9 share the exact ring gIOVA (slot collision).
	if RingPageFor(1) != RingPageFor(9) {
		t.Fatal("SIDs 1 and 9 should share a ring slot")
	}
	if RingPageFor(1) == RingPageFor(2) {
		t.Fatal("SIDs 1 and 2 should use different ring slots")
	}
	ra, err := a.Nested.WalkInto(a.DataPages[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Nested.WalkInto(b.DataPages[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.HPA == rb.HPA {
		t.Fatalf("tenants map the same gIOVA to the same hPA %#x — isolation broken", ra.HPA)
	}
}

func TestPageShiftOf(t *testing.T) {
	if PageShiftOf(RingIOVA) != mem.PageShift {
		t.Error("ring page should be 4K")
	}
	if PageShiftOf(DataBase+12345) != mem.HugePageShift {
		t.Error("data region should be 2M")
	}
	if PageShiftOf(InitBase) != mem.PageShift {
		t.Error("init region should be 4K")
	}
}

func TestParseKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kind
	}{{"iperf3", Iperf3}, {"media", Mediastream}, {"websearch", Websearch}} {
		got, err := ParseKind(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseKind(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind(nope) should error")
	}
}

// Property: budgets are within scaled bounds and monotone in scale.
func TestPropertyBudgetBounds(t *testing.T) {
	p := ProfileFor(Websearch)
	f := func(sidRaw uint16, seed int64) bool {
		sid := mem.SID(sidRaw)
		full := BudgetFor(p, sid, seed, 1.0)
		half := BudgetFor(p, sid, seed, 0.5)
		if full < p.MinRequests || full > p.MaxRequests {
			return false
		}
		// Same tenant, same seed: half scale is half the draw (rounded).
		return half == int(float64(full)/1.0*0.5) || half >= RequestsPerPacket
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the generator's active data-page set stays bounded by the
// stream count (plus jitter from jumps landing on shared pages).
func TestPropertyActivePagesBounded(t *testing.T) {
	for _, k := range Kinds {
		p := ProfileFor(k)
		g := NewGenerator(p, 11, 123, 0.05)
		// Skip init phase.
		window := map[uint64]bool{}
		n := 0
		for {
			pkt, ok := g.Next()
			if !ok {
				break
			}
			if pkt.Data < DataBase || pkt.Data >= InitBase {
				continue
			}
			n++
			if n < 1000 {
				continue // warm up past staggered starts
			}
			window[pkt.Data>>mem.HugePageShift] = true
			if len(window) > p.DataPages {
				t.Fatalf("%s: touched %d distinct data pages, profile has %d", k, len(window), p.DataPages)
			}
		}
	}
}

func TestSmallDataVariant(t *testing.T) {
	small := SmallDataVariant(ProfileFor(Iperf3))
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if small.DataShift() != mem.PageShift {
		t.Fatalf("DataShift = %d, want 4K", small.DataShift())
	}
	if small.DataRegionBase() != SmallDataBase {
		t.Fatalf("DataRegionBase = %#x", small.DataRegionBase())
	}
	g := NewGenerator(small, 3, 11, 0.02)
	dataPkts, unmaps := 0, 0
	for {
		pkt, ok := g.Next()
		if !ok {
			break
		}
		if pkt.Data >= SmallDataBase && pkt.Data < InitBase {
			dataPkts++
			if PageShiftOf(pkt.Data) != mem.PageShift {
				t.Fatalf("small-data gIOVA %#x not 4K", pkt.Data)
			}
		}
		if pkt.Data >= DataBase && pkt.Data < SmallDataBase {
			t.Fatalf("small-data profile emitted hugepage gIOVA %#x", pkt.Data)
		}
		if pkt.UnmapIOVA != 0 {
			unmaps++
			if pkt.UnmapShift != mem.PageShift {
				t.Fatalf("unmap shift %d, want 4K", pkt.UnmapShift)
			}
		}
	}
	if dataPkts == 0 {
		t.Fatal("no small-data accesses")
	}
	// 4K buffers recycle ~every RunLength packets: unmap churn must be
	// far higher than the hugepage profiles' (one per ~1400 packets).
	if unmaps*50 < dataPkts {
		t.Fatalf("unmap churn too low: %d unmaps over %d data packets", unmaps, dataPkts)
	}
}

func TestSmallDataAddressSpaceWalks(t *testing.T) {
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	small := SmallDataVariant(ProfileFor(Iperf3))
	as, err := BuildAddressSpaceLevels(small, 4, host, nil, mem.Levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.DataPages) != small.DataPages {
		t.Fatalf("mapped %d data pages, want %d", len(as.DataPages), small.DataPages)
	}
	res, err := as.Nested.WalkInto(as.DataPages[100]+0x10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4K mapping: the full two-dimensional walk is 24 accesses.
	if len(res.Accesses) != 24 {
		t.Fatalf("small-data walk made %d accesses, want 24", len(res.Accesses))
	}
}
