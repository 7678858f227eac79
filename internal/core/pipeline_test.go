package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/obs"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// TestDatapathResolvesVariants pins the config -> stage-sequence
// mapping: every design variant is a different geometry of one chain.
func TestDatapathResolvesVariants(t *testing.T) {
	kinds := func(c Config) []string {
		stages := pipeline.New(pipeline.Env{}, c.datapath()).Stages()
		out := make([]string, len(stages))
		for i, s := range stages {
			out[i] = s.Name()
		}
		return out
	}
	check := func(name string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: stages %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: stages %v, want %v", name, got, want)
			}
		}
	}
	check("base", kinds(BaseConfig()), []string{"ptb", "devtlb", "iommu"})
	check("hypertrio", kinds(HyperTRIOConfig()),
		[]string{"ptb", "devtlb", "prefetch", "iommu", "history-reader"})
	off := Config{Params: DefaultParams(), TranslationOff: true}
	check("native", kinds(off), nil)
	noTLB := BaseConfig()
	noTLB.DevTLB.Sets = 0
	check("no devtlb", kinds(noTLB), []string{"ptb", "iommu"})
}

// TestDescribePipeline checks the user-facing -describe rendering.
func TestDescribePipeline(t *testing.T) {
	got, err := DescribePipeline(HyperTRIOConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ptb", "devtlb", "prefetch", "iommu", "history-reader", "5 stages"} {
		if !strings.Contains(got, want) {
			t.Fatalf("describe output missing %q:\n%s", want, got)
		}
	}
	got, err = DescribePipeline(Config{Params: DefaultParams(), TranslationOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "translation off") {
		t.Fatalf("native describe: %q", got)
	}
	if _, err := DescribePipeline(Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestNewPoliciesRunEndToEnd proves the configuration seam: an LRU
// DevTLB (Base's default is LFU) and a shared (hashed, unpartitioned)
// chipset IOTLB run through the full simulation purely as configuration
// — no new code path.
func TestNewPoliciesRunEndToEnd(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 16, trace.RR1, 0.002)
	cfg := BaseConfig()
	cfg.DevTLB.Policy = tlb.LRU
	cfg.IOMMU.IOTLB = tlb.Config{
		Name: "iotlb", Sets: 16, Ways: 8, Policy: tlb.LRU, Index: tlb.Hashed,
	}
	r := run(t, cfg, tr)
	if r.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("processed %d of %d packets", r.Packets, len(tr.Packets))
	}
	if r.DevTLB.Lookups == 0 || r.DevTLB.Hits == 0 {
		t.Fatalf("LRU DevTLB saw no traffic: %+v", r.DevTLB)
	}
	if r.IOMMU.IOTLB.Lookups == 0 {
		t.Fatalf("shared IOTLB saw no traffic: %+v", r.IOMMU.IOTLB)
	}
}

// TestRepeatedRunsByteIdentical pins determinism at the event level: two
// fresh systems over the same inputs must emit byte-identical traces and
// identical results — no map-iteration order can leak into scheduling.
func TestRepeatedRunsByteIdentical(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 32, trace.RAND1, 0.002)
	cfg := HyperTRIOConfig()
	cfg.IOMMUWalkers = 4
	runOnce := func() ([]byte, Result) {
		var buf bytes.Buffer
		c := cfg
		c.Obs = &obs.Options{Tracer: obs.NewTracer(&buf), SampleEvery: 5 * sim.Microsecond}
		r := run(t, c, tr)
		if err := c.Obs.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r
	}
	ev1, r1 := runOnce()
	ev2, r2 := runOnce()
	if !bytes.Equal(ev1, ev2) {
		t.Fatalf("event traces differ between identical runs (%d vs %d bytes)", len(ev1), len(ev2))
	}
	r1.Series, r2.Series = nil, nil
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
	}
}

// TestRetryLatencyDatesFromFirstAttempt pins the drop-retry accounting:
// a packet's recorded service time must span from its FIRST arrival
// attempt (even if that attempt was dropped) to completion, with the
// sampler ticking across retry sequences.
//
// Geometry: one tenant, one PTB slot, no DevTLB — every packet's three
// translations go to the chipset (~2 µs round trip) while arrival slots
// land every ~62 ns, so nearly every packet is dropped repeatedly before
// acceptance. With a single tenant and a single PTB slot, packets are
// accepted and completed in trace order, so first-attempt times can be
// matched to completions FIFO.
func TestRetryLatencyDatesFromFirstAttempt(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.0005)
	cfg := BaseConfig()
	cfg.DevTLB.Sets = 0 // all demand misses
	cfg.PTBEntries = 1

	var buf bytes.Buffer
	cfg.Obs = &obs.Options{Tracer: obs.NewTracer(&buf), SampleEvery: 1 * sim.Microsecond}
	r := run(t, cfg, tr)
	if err := cfg.Obs.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Drops == 0 {
		t.Fatal("operating point produced no drops; the retry path is untested")
	}

	var firstAttempts []int64 // FIFO of first-attempt times
	var completes, retries int
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "arrival": // emitted only for a packet's first attempt
			firstAttempts = append(firstAttempts, ev.T)
		case "retry":
			retries++
		case "complete":
			if len(firstAttempts) == 0 {
				t.Fatal("complete event with no matching first attempt")
			}
			first := firstAttempts[0]
			firstAttempts = firstAttempts[1:]
			if want := ev.T - first; ev.DurPs != want {
				t.Fatalf("complete at t=%d: DurPs = %d, want %d (first attempt at %d)",
					ev.T, ev.DurPs, want, first)
			}
			completes++
		}
	}
	if completes != int(r.Packets) {
		t.Fatalf("matched %d completes, result says %d packets", completes, r.Packets)
	}
	if retries == 0 {
		t.Fatal("no retry events despite drops")
	}
}
