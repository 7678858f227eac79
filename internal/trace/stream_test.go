package trace

import (
	"testing"

	"hypertrio/internal/workload"
)

// TestStreamMatchesMaterialized proves the equivalence contract: draining a
// Stream yields exactly the packet sequence and tenant stats of the
// materialized trace for the same Config, across interleavings and RNGs.
// (Construct is implemented by draining a Stream, so this is a regression
// guard against the two paths ever diverging again.)
func TestStreamMatchesMaterialized(t *testing.T) {
	cases := []Config{
		{Benchmark: workload.Iperf3, Tenants: 7, Interleave: RR1, Seed: 42, Scale: 0.001},
		{Benchmark: workload.Mediastream, Tenants: 5, Interleave: RR4, Seed: 1, Scale: 0.0005},
		{Benchmark: workload.Websearch, Tenants: 9, Interleave: RAND1, Seed: 99, Scale: 0.0005},
		{Benchmark: workload.Iperf3, Tenants: 11, Interleave: RAND1, Seed: 7, Scale: 0.001, RNG: workload.CompactRNG},
	}
	for _, c := range cases {
		tr, err := Construct(c)
		if err != nil {
			t.Fatalf("%v %v: Construct: %v", c.Benchmark, c.Interleave, err)
		}
		s, err := NewStream(c)
		if err != nil {
			t.Fatalf("%v %v: NewStream: %v", c.Benchmark, c.Interleave, err)
		}
		for i, want := range tr.Packets {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("%v %v: stream ended at packet %d, trace has %d", c.Benchmark, c.Interleave, i, len(tr.Packets))
			}
			if got != want {
				t.Fatalf("%v %v: packet %d: stream %+v != trace %+v", c.Benchmark, c.Interleave, i, got, want)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%v %v: stream longer than materialized trace (%d packets)", c.Benchmark, c.Interleave, len(tr.Packets))
		}
		stats := s.TenantStats()
		if len(stats) != len(tr.Stats) {
			t.Fatalf("%v %v: stats length %d != %d", c.Benchmark, c.Interleave, len(stats), len(tr.Stats))
		}
		for i := range stats {
			if stats[i] != tr.Stats[i] {
				t.Fatalf("%v %v: tenant %d stats: stream %+v != trace %+v", c.Benchmark, c.Interleave, i, stats[i], tr.Stats[i])
			}
		}
	}
}

// TestStreamReset proves Reset rewinds to the bit-identical sequence.
func TestStreamReset(t *testing.T) {
	c := Config{Benchmark: workload.Websearch, Tenants: 6, Interleave: RAND1, Seed: 5, Scale: 0.0005}
	s, err := NewStream(c)
	if err != nil {
		t.Fatal(err)
	}
	var first []workload.Packet
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		first = append(first, p)
	}
	if len(first) == 0 {
		t.Fatal("empty stream")
	}
	s.Reset()
	for i, want := range first {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("second pass ended at %d of %d", i, len(first))
		}
		if got != want {
			t.Fatalf("second pass packet %d: %+v != %+v", i, got, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("second pass longer than first")
	}
}

// TestTraceSourceRoundTrip checks the materialized adapter: its Meta,
// full replay and Reset.
func TestTraceSourceRoundTrip(t *testing.T) {
	c := Config{Benchmark: workload.Iperf3, Tenants: 3, Interleave: RR1, Seed: 2, Scale: 0.001}
	tr, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	src := tr.Source()
	if got := src.Meta(); got.Tenants != tr.Tenants || got.Benchmark != tr.Benchmark || got.Seed != tr.Seed {
		t.Fatalf("Meta mismatch: %+v", got)
	}
	for pass := 0; pass < 2; pass++ {
		for i, want := range tr.Packets {
			got, ok := src.Next()
			if !ok || got != want {
				t.Fatalf("pass %d packet %d: got %+v ok=%v", pass, i, got, ok)
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("pass %d: adapter overran the trace", pass)
		}
		src.Reset()
	}
}
