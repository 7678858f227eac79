package trace

import (
	"math"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

func mixTwoClass() MixConfig {
	return MixConfig{
		Classes: []ClassSpec{
			{Name: "victim", Profile: workload.ProfileFor(workload.Iperf3), Tenants: 6, Weight: 1, Scale: 0.02},
			{Name: "bully", Profile: workload.ProfileFor(workload.Mediastream), Tenants: 2, Weight: 4, Scale: 0.3},
		},
		Interleave: RR1,
		Seed:       7,
	}
}

func TestMixValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MixConfig)
	}{
		{"no classes", func(c *MixConfig) { c.Classes = nil }},
		{"zero tenants", func(c *MixConfig) { c.Classes[0].Tenants = 0 }},
		{"negative weight", func(c *MixConfig) { c.Classes[1].Weight = -1 }},
		{"zero scale", func(c *MixConfig) { c.Classes[0].Scale = 0 }},
		{"NaN scale", func(c *MixConfig) { c.Classes[0].Scale = math.NaN() }},
		{"scale above the bound", func(c *MixConfig) { c.Classes[1].Scale = maxClassScale * 2 }},
		{"zero burst", func(c *MixConfig) { c.Interleave.Burst = 0 }},
		{"bad profile", func(c *MixConfig) { c.Classes[0].Profile.Streams = 0 }},
		{"unknown interleave kind", func(c *MixConfig) { c.Interleave = Interleave{Kind: 2, Burst: 1} }},
		{"unknown benchmark", func(c *MixConfig) { c.Classes[1].Profile.Kind = 9 }},
	}
	for _, tc := range cases {
		c := mixTwoClass()
		tc.mut(&c)
		if _, err := NewMixStream(c); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// The mix stream assigns contiguous SID ranges in class order and
// carries the partition on Meta.
func TestMixClassLayout(t *testing.T) {
	c := mixTwoClass()
	s, err := NewMixStream(c)
	if err != nil {
		t.Fatal(err)
	}
	meta := s.Meta()
	if meta.Tenants != 8 {
		t.Fatalf("tenants = %d, want 8", meta.Tenants)
	}
	if len(meta.Classes) != 2 || meta.Classes[0].Name != "victim" || meta.Classes[1].Name != "bully" {
		t.Fatalf("classes = %+v", meta.Classes)
	}
	if meta.Classes[1].Weight != 4 {
		t.Fatalf("bully weight = %d, want 4", meta.Classes[1].Weight)
	}
	if meta.Benchmark != workload.Iperf3 {
		t.Fatalf("lead benchmark = %v, want iperf3", meta.Benchmark)
	}
	stats := s.TenantStats()
	for i, st := range stats {
		if st.SID != mem.SID(i+1) {
			t.Fatalf("stats[%d].SID = %d, want %d", i, st.SID, i+1)
		}
	}
}

// A weight-w tenant receives w consecutive base bursts per round-robin
// turn, so the first full RR cycle of a two-class mix is
// victim x6 then bully x(2*4) packets.
func TestMixWeightedRoundRobin(t *testing.T) {
	c := mixTwoClass()
	s, err := NewMixStream(c)
	if err != nil {
		t.Fatal(err)
	}
	var order []mem.SID
	for i := 0; i < 6+2*4; i++ {
		pkt, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at packet %d", i)
		}
		order = append(order, pkt.SID)
	}
	want := []mem.SID{1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 8, 8, 8, 8}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("cycle order = %v, want %v", order, want)
		}
	}
}

// Weighted random draws respect class weights within sampling noise:
// the weight-4 bully class (2 tenants, 8 of 14 weight) should carry
// roughly 8/14 of the packets.
func TestMixWeightedRandomShare(t *testing.T) {
	c := mixTwoClass()
	c.Interleave = RAND1
	s, err := NewMixStream(c)
	if err != nil {
		t.Fatal(err)
	}
	bully, total := 0, 0
	for {
		pkt, ok := s.Next()
		if !ok {
			break
		}
		total++
		if pkt.SID >= 7 {
			bully++
		}
	}
	if total < 1000 {
		t.Fatalf("stream too short for a share estimate: %d packets", total)
	}
	share := float64(bully) / float64(total)
	want := 8.0 / 14.0
	if share < want-0.05 || share > want+0.05 {
		t.Fatalf("bully share = %.3f, want ~%.3f", share, want)
	}
}

// ConstructMix is a drain of NewMixStream: both modes yield the
// identical packet sequence, and Reset rewinds to the same stream.
func TestMixStreamMatchesConstruct(t *testing.T) {
	c := mixTwoClass()
	for _, iv := range []Interleave{RR1, RR4, RAND1} {
		c.Interleave = iv
		tr, err := ConstructMix(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Classes) != 2 {
			t.Fatalf("%v: trace classes = %d, want 2", iv, len(tr.Classes))
		}
		s, err := NewMixStream(c)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i, want := range tr.Packets {
				got, ok := s.Next()
				if !ok {
					t.Fatalf("%v pass %d: stream ended at packet %d of %d", iv, pass, i, len(tr.Packets))
				}
				if got != want {
					t.Fatalf("%v pass %d: packet %d = %+v, want %+v", iv, pass, i, got, want)
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatalf("%v pass %d: stream longer than materialized trace", iv, pass)
			}
			s.Reset()
		}
	}
}

// A single-class weight-1 mix draws the same uniform random interleave
// as the classic Stream (identical RNG stream), so RAND mixes reduce to
// the uniform case when no weights are present.
func TestMixUniformRandomMatchesStream(t *testing.T) {
	p := workload.ProfileFor(workload.Iperf3)
	mc := MixConfig{
		Classes:    []ClassSpec{{Name: "all", Profile: p, Tenants: 5, Weight: 1, Scale: 0.01}},
		Interleave: RAND1,
		Seed:       99,
	}
	sc := Config{Benchmark: workload.Iperf3, Tenants: 5, Interleave: RAND1, Seed: 99, Scale: 0.01}
	ms, err := NewMixStream(mc)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		a, aok := ms.Next()
		b, bok := ss.Next()
		if aok != bok {
			t.Fatalf("length mismatch at packet %d: mix ok=%v stream ok=%v", i, aok, bok)
		}
		if !aok {
			break
		}
		if a != b {
			t.Fatalf("packet %d: mix %+v != stream %+v", i, a, b)
		}
	}
}

// TraceSource passes the class partition through Meta.
func TestMixTraceSourceMeta(t *testing.T) {
	tr, err := ConstructMix(mixTwoClass())
	if err != nil {
		t.Fatal(err)
	}
	meta := tr.Source().Meta()
	if len(meta.Classes) != 2 || meta.Classes[0].Tenants != 6 {
		t.Fatalf("source meta classes = %+v", meta.Classes)
	}
}
