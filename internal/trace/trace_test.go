package trace

import (
	"errors"
	"math"
	"strings"
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
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: RR1, Scale: math.NaN()},
		{Benchmark: workload.Iperf3, Tenants: 4, Interleave: Interleave{Kind: 2, Burst: 1}, Scale: 0.1},
		{Benchmark: 9, Tenants: 4, Interleave: RR1, Scale: 0.1},
	}
	for i, c := range bad {
		if _, err := Construct(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

// The tenant cap is checked before NewStream allocates per-tenant state.
func TestConfigTenantCap(t *testing.T) {
	c := Config{Benchmark: workload.Iperf3, Tenants: MaxTenants, Interleave: RR1, Scale: 0.1, RNG: workload.CompactRNG}
	if err := c.validate(); err != nil {
		t.Fatalf("%d tenants rejected: %v", c.Tenants, err)
	}
	for _, n := range []int{MaxTenants + 1, 1 << 40} {
		c.Tenants = n
		if err := c.validate(); err == nil || !strings.Contains(err.Error(), "tenants") {
			t.Errorf("%d tenants: validate() = %v, want a tenants error", n, err)
		}
	}
}

// A standard-RNG population is capped well below MaxTenants: each of its
// generators holds ~5 KB of math/rand state. The check runs in validate,
// before any generator exists, and its error names the compact RNG.
func TestStdRNGTenantCap(t *testing.T) {
	profile := workload.ProfileFor(workload.Iperf3)
	mix := func(tenants int, rng workload.RNG) MixConfig {
		return MixConfig{Interleave: RR1, RNG: rng, Classes: []ClassSpec{
			{Name: "a", Profile: profile, Tenants: tenants / 2, Scale: 0.1},
			{Name: "b", Profile: profile, Tenants: tenants - tenants/2, Scale: 0.1},
		}}
	}
	cfg := func(tenants int, rng workload.RNG) Config {
		return Config{Benchmark: workload.Iperf3, Tenants: tenants, Interleave: RR1, Scale: 0.1, RNG: rng}
	}
	rows := []struct {
		name string
		err  error
		ok   bool
	}{
		{"config at the cap", cfg(MaxStdRNGTenants, workload.StdRNG).validate(), true},
		{"config past the cap", cfg(MaxStdRNGTenants+1, workload.StdRNG).validate(), false},
		{"compact config past the cap", cfg(MaxStdRNGTenants+1, workload.CompactRNG).validate(), true},
		{"mix at the cap", mix(MaxStdRNGTenants, workload.StdRNG).validate(), true},
		{"mix past the cap", mix(1<<21, workload.StdRNG).validate(), false},
		{"compact mix past the cap", mix(1<<21, workload.CompactRNG).validate(), true},
	}
	for _, r := range rows {
		if r.ok != (r.err == nil) {
			t.Errorf("%s: validate() = %v", r.name, r.err)
		}
		if r.err != nil && !strings.Contains(r.err.Error(), "compact") {
			t.Errorf("%s: error does not name the compact RNG: %v", r.name, r.err)
		}
	}
}

// A trace past MaxPackets fails with ErrTooLarge before drain allocates
// or generates anything: 2,000 iperf3 tenants at paper scale are ~45M
// packets.
func TestConstructTooLarge(t *testing.T) {
	c := Config{Benchmark: workload.Iperf3, Tenants: 2000, Interleave: RR1, Seed: 42, Scale: 1}
	s, err := NewStream(c)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := drain(s, nil)
	if !errors.Is(err, ErrTooLarge) || tr != nil {
		t.Fatalf("drain = %v, %v; want ErrTooLarge", tr, err)
	}
	for _, st := range s.TenantStats() {
		if st.Packets != 0 {
			t.Fatalf("SID %d generated %d packets before the cap check", st.SID, st.Packets)
		}
	}
	if _, err := Construct(c); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Construct = %v, want ErrTooLarge", err)
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

func TestParseInterleave(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Interleave
	}{{"RR1", RR1}, {"rr4", RR4}, {"RAND1", RAND1}, {"RAND16", Interleave{Random, 16}}, {"rand10", Interleave{Random, 10}}} {
		got, err := ParseInterleave(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseInterleave(%q) = %v, %v", c.in, got, err)
		}
	}
	// The burst is decimal digits only: no trailing junk, fraction, sign,
	// space or leading zero.
	for _, bad := range []string{"XX1", "RR", "RR0", "RAND-1", "", "RR1x", "rr4junk", "RR1.5", "RR 3", "RR+2", "RR01", "RAND1 ", "RR1_0", "RR99999999999999999999"} {
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

func TestTraceAccessors(t *testing.T) {
	var empty Trace
	if empty.MinTenantBudget() != 0 || empty.MaxTenantBudget() != 0 {
		t.Fatal("empty trace budgets should be zero")
	}
	if empty.Requests() != 0 {
		t.Fatal("empty trace has requests")
	}
	if got := InterleaveKind(9).String(); got == "" {
		t.Fatal("unknown interleave kind has empty String")
	}
}
