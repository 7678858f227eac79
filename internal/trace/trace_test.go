package trace

import (
	"bytes"
	"errors"
	"testing"

	"hypertrio/internal/workload"
)

func mustConstruct(t *testing.T, c Config) *Trace {
	t.Helper()
	tr, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConstructValidation(t *testing.T) {
	bad := []Config{
		{Benchmark: workload.Iperf3, Tenants: 0, Interleave: RR1, Scale: 0.1},
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: Interleave{RoundRobin, 0}, Scale: 0.1},
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: RR1, Scale: 0},
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: RR1, Scale: 1.5},
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: Interleave{Kind: 2, Burst: 1}, Scale: 0.1},
		{Benchmark: 9, Tenants: 4, Interleave: RR1, Scale: 0.1},
	}
	for i, c := range bad {
		if _, err := Construct(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestRoundRobinInterleaving(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 4, Interleave: RR1, Seed: 1, Scale: 0.005})
	// RR1: SIDs cycle 1,2,3,4,1,2,...
	for i, p := range tr.Packets[:40] {
		want := uint16(i%4) + 1
		if uint16(p.SID) != want {
			t.Fatalf("packet %d from SID %d, want %d", i, p.SID, want)
		}
	}
}

func TestRR4BurstStructure(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 3, Interleave: RR4, Seed: 1, Scale: 0.005})
	for i := 0; i+4 <= 24; i += 4 {
		sid := tr.Packets[i].SID
		for j := 1; j < 4; j++ {
			if tr.Packets[i+j].SID != sid {
				t.Fatalf("burst broken at packet %d", i+j)
			}
		}
	}
}

func TestRandomInterleavingTouchesAllTenants(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 8, Interleave: RAND1, Seed: 3, Scale: 0.01})
	seen := map[uint16]bool{}
	for _, p := range tr.Packets {
		seen[uint16(p.SID)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("random interleave used %d tenants, want 8", len(seen))
	}
}

func TestEdgeEffectTruncation(t *testing.T) {
	// RR1 consumes all tenants at the same rate, so the trace stops when
	// the minimum-budget tenant runs out: consumed per tenant differs by
	// at most one packet.
	tr := mustConstruct(t, Config{Benchmark: workload.Mediastream, Tenants: 6, Interleave: RR1, Seed: 5, Scale: 0.02})
	minP, maxP := tr.Stats[0].Packets, tr.Stats[0].Packets
	for _, s := range tr.Stats {
		if s.Packets < minP {
			minP = s.Packets
		}
		if s.Packets > maxP {
			maxP = s.Packets
		}
		if s.Consumed > s.Budget {
			t.Fatalf("tenant %d consumed %d > budget %d", s.SID, s.Consumed, s.Budget)
		}
	}
	if maxP-minP > 1 {
		t.Fatalf("RR1 packet counts spread %d..%d, want within 1", minP, maxP)
	}
	// The minimum-budget tenant must be (nearly) exhausted.
	minBudgetPkts := tr.MinTenantBudget() / workload.RequestsPerPacket
	if maxP < minBudgetPkts-1 {
		t.Fatalf("trace stopped early: %d packets per tenant, min budget allows %d", maxP, minBudgetPkts)
	}
}

func TestTableIIITotalApproxTenantsTimesMin(t *testing.T) {
	// The paper's Table III totals equal ~tenants x min-requests under
	// RR1; verify the same identity at reduced scale.
	tr := mustConstruct(t, Config{Benchmark: workload.Websearch, Tenants: 32, Interleave: RR1, Seed: 7, Scale: 0.01})
	want := 32 * (tr.MinTenantBudget() / workload.RequestsPerPacket) * workload.RequestsPerPacket
	got := tr.Requests()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 32*workload.RequestsPerPacket {
		t.Fatalf("total %d not within one packet/tenant of %d", got, want)
	}
}

func TestConstructDeterminism(t *testing.T) {
	c := Config{Benchmark: workload.Websearch, Tenants: 5, Interleave: RAND1, Seed: 11, Scale: 0.01}
	a := mustConstruct(t, c)
	b := mustConstruct(t, c)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestFlatten(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: RR1, Seed: 1, Scale: 0.005})
	reqs := tr.Flatten()
	if len(reqs) != tr.Requests() {
		t.Fatalf("flatten produced %d requests, want %d", len(reqs), tr.Requests())
	}
	for i, p := range tr.Packets {
		r := reqs[i*3 : i*3+3]
		if r[0].Type != RingPointer || r[1].Type != DataBuffer || r[2].Type != Mailbox {
			t.Fatalf("packet %d types: %v %v %v", i, r[0].Type, r[1].Type, r[2].Type)
		}
		if r[0].IOVA != p.Ring || r[1].IOVA != p.Data || r[2].IOVA != p.Mailbox {
			t.Fatalf("packet %d IOVAs mismatch", i)
		}
		for _, rr := range r {
			if rr.SID != p.SID {
				t.Fatalf("packet %d SID mismatch", i)
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Mediastream, Tenants: 7, Interleave: RR4, Seed: 13, Scale: 0.01})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != tr.Benchmark || got.Interleave != tr.Interleave ||
		got.Tenants != tr.Tenants || got.Seed != tr.Seed || got.Scale != tr.Scale {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("packet count %d, want %d", len(got.Packets), len(tr.Packets))
	}
	for i := range got.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("packet %d: %+v vs %+v", i, got.Packets[i], tr.Packets[i])
		}
	}
	if len(got.Stats) != len(tr.Stats) {
		t.Fatalf("stats count %d, want %d", len(got.Stats), len(tr.Stats))
	}
	for i := range got.Stats {
		if got.Stats[i] != tr.Stats[i] {
			t.Fatalf("stat %d: %+v vs %+v", i, got.Stats[i], tr.Stats[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("HS"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
	var buf bytes.Buffer
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: RR1, Seed: 1, Scale: 0.005})
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	for name, data := range malformedTraces(t) {
		if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Read error %v, want ErrMalformed", name, err)
		}
	}
}

// malformedTraces encodes 4-tenant traces mutated into files that decode
// as varints but describe no constructible trace.
func malformedTraces(tb testing.TB) map[string][]byte {
	tb.Helper()
	mutations := map[string]func(*Trace){
		"sid-out-of-range": func(tr *Trace) { tr.Packets[len(tr.Packets)/2].SID = 9 },
		"sid-zero":         func(tr *Trace) { tr.Packets[0].SID = 0 },
		"huge-tenants":     func(tr *Trace) { tr.Tenants = 1 << 30 },
		"unknown-benchmark": func(tr *Trace) {
			tr.Benchmark = 9
			tr.Profile = workload.Profile{}
		},
		"unknown-interleave": func(tr *Trace) { tr.Interleave.Kind = 2 },
		"zero-burst":         func(tr *Trace) { tr.Interleave.Burst = 0 },
	}
	out := make(map[string][]byte, len(mutations))
	for name, mutate := range mutations {
		tr, err := Construct(Config{Benchmark: workload.Iperf3, Tenants: 4, Interleave: RR1, Seed: 1, Scale: 0.002})
		if err != nil {
			tb.Fatal(err)
		}
		mutate(tr)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

func TestParseInterleave(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Interleave
	}{{"RR1", RR1}, {"rr4", RR4}, {"RAND1", RAND1}, {"RAND16", Interleave{Random, 16}}} {
		got, err := ParseInterleave(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseInterleave(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, bad := range []string{"XX1", "RR", "RR0", "RAND-1", ""} {
		if _, err := ParseInterleave(bad); err == nil {
			t.Errorf("ParseInterleave(%q) accepted", bad)
		}
	}
}

func TestInterleaveString(t *testing.T) {
	if RR1.String() != "RR1" || RR4.String() != "RR4" || RAND1.String() != "RAND1" {
		t.Fatalf("%v %v %v", RR1, RR4, RAND1)
	}
}

func TestCustomProfileOverride(t *testing.T) {
	custom := workload.ProfileFor(workload.Iperf3)
	custom.DataPages = 4
	custom.Streams = 2
	custom.MinRequests = 3000
	custom.MaxRequests = 3000
	tr, err := Construct(Config{
		Benchmark: workload.Iperf3, Tenants: 3, Interleave: RR1,
		Seed: 1, Scale: 1.0, Profile: &custom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Profile.DataPages != 4 || tr.Profile.Streams != 2 {
		t.Fatalf("trace did not carry the custom profile: %+v", tr.Profile)
	}
	// With identical budgets the trace length is exact.
	if got, want := len(tr.Packets), 3*(3000/workload.RequestsPerPacket); got != want {
		t.Fatalf("trace has %d packets, want %d", got, want)
	}
	for _, p := range tr.Packets {
		if p.Data >= workload.DataBase && p.Data < workload.InitBase {
			page := (p.Data - workload.DataBase) >> 21
			if page >= 4 {
				t.Fatalf("packet uses data page %d outside the custom 4-page ring", page)
			}
		}
	}
	// Invalid custom profiles are rejected.
	bad := custom
	bad.Streams = 99
	if _, err := Construct(Config{Benchmark: workload.Iperf3, Tenants: 1,
		Interleave: RR1, Seed: 1, Scale: 1.0, Profile: &bad}); err == nil {
		t.Fatal("invalid custom profile accepted")
	}
}

func TestBinaryPreservesProfile(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Websearch, Tenants: 3, Interleave: RR1, Seed: 2, Scale: 0.01})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile != tr.Profile {
		t.Fatalf("profile did not round-trip:\n%+v\n%+v", got.Profile, tr.Profile)
	}
}

func TestBinaryHeaderFieldCorruption(t *testing.T) {
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: RR1, Seed: 1, Scale: 0.005})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the version varint (byte 4, right after the magic).
	bad := append([]byte{}, raw...)
	bad[4] = 0x7f
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncate inside the profile block.
	if _, err := Read(bytes.NewReader(raw[:20])); err == nil {
		t.Error("profile-truncated trace accepted")
	}
}

func TestTraceAccessors(t *testing.T) {
	var empty Trace
	if empty.MinTenantBudget() != 0 || empty.MaxTenantBudget() != 0 {
		t.Fatal("empty trace budgets should be zero")
	}
	if empty.Requests() != 0 {
		t.Fatal("empty trace has requests")
	}
	if got := RequestType(99).String(); got == "" {
		t.Fatal("unknown request type has empty String")
	}
	if got := InterleaveKind(9).String(); got == "" {
		t.Fatal("unknown interleave kind has empty String")
	}
}

func TestSmallDataProfileRoundTrip(t *testing.T) {
	small := workload.SmallDataVariant(workload.ProfileFor(workload.Iperf3))
	tr := mustConstruct(t, Config{Benchmark: workload.Iperf3, Tenants: 2, Interleave: RR1, Seed: 1, Scale: 0.005, Profile: &small})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Profile.SmallData {
		t.Fatal("SmallData flag lost in serialization")
	}
	if got.Profile != tr.Profile {
		t.Fatalf("profile mismatch: %+v vs %+v", got.Profile, tr.Profile)
	}
}
