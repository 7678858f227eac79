package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/core"
	"hypertrio/internal/fault"
	"hypertrio/internal/obs"
	"hypertrio/internal/scenario"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// TestDropRetryFastForwardExact is the differential proof of the
// drop-retry fast-forward. Each case runs twice over the same trace:
// with a Tracer and the engine probe, which skips a blocked link's dead
// slots in one step, and with a Tracer under RunPerSlot, whose inert
// slot ticker makes every link slot fire as its own arrival event.
// Without the probe's sched/fire lines the first trace must be
// byte-identical to the second, and the two Results deep-equal; the
// reference must have fired at least one model event per link slot.
// Each case's invariants subtest then checks the conservation
// identities of that run from the outside: the trace holds one drop
// line per counted drop and one completion per packet, and the PTB's
// counts match the packet accounting.
func TestDropRetryFastForwardExact(t *testing.T) {
	websearch, err := trace.Construct(trace.Config{
		Benchmark: workload.Websearch, Tenants: 16, Interleave: trace.RR1, Seed: 42, Scale: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	ptb := func(cfg core.Config, n int) core.Config { cfg.PTBEntries = n; return cfg }
	serial := core.BaseConfig()
	serial.SerialRequests = true
	slowArrivals := core.BaseConfig()
	slowArrivals.Params.ArrivalGbps = 60
	sampled := core.BaseConfig()
	churn := core.BaseConfig()
	churn.Fault = fault.ChurnPlan(7, 16, 40*sim.Microsecond, 15*sim.Microsecond, 2*sim.Millisecond)
	// On a 50 ns link slot with every latency a multiple of it, each
	// completion lands on a slot's picosecond: the same-time ordering
	// the fast-forward must keep is then decided on every packet.
	grid := func(cfg core.Config) core.Config {
		cfg.Params.PacketBytes = 1250
		cfg.Params.TLBHit = 50 * sim.Nanosecond
		return cfg
	}
	walkerFaults := core.BaseConfig()
	walkerFaults.Fault = fault.WalkerFaultPlan(7, 25*sim.Microsecond, 2*sim.Millisecond, 3, fault.RetryPolicy{})

	type tc struct {
		name        string
		cfg         core.Config
		tr          *trace.Trace
		sampleEvery sim.Duration
	}
	cases := []tc{
		{name: "base", cfg: core.BaseConfig(), tr: websearch},
		{name: "hypertrio-ptb1", cfg: ptb(core.HyperTRIOConfig(), 1), tr: websearch},
		{name: "hypertrio-ptb2", cfg: ptb(core.HyperTRIOConfig(), 2), tr: websearch},
		{name: "serial-requests", cfg: serial, tr: websearch},
		{name: "arrival-below-link", cfg: slowArrivals, tr: websearch},
		{name: "base-slot-grid", cfg: grid(core.BaseConfig()), tr: websearch},
		{name: "hypertrio-ptb2-slot-grid", cfg: grid(ptb(core.HyperTRIOConfig(), 2)), tr: websearch},
		{name: "sampled", cfg: sampled, tr: websearch, sampleEvery: 7 * sim.Microsecond},
		{name: "base-churn", cfg: churn, tr: websearch},
		{name: "base-walker-faults", cfg: walkerFaults, tr: websearch},
	}
	for _, sc := range []struct {
		name string
		cfg  core.Config
	}{
		{"storm", core.BaseConfig()},
		{"incast", ptb(core.HyperTRIOConfig(), 1)},
	} {
		s, err := scenario.ByName(sc.name)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := s.WithScale(0.1).Compile()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := comp.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: "scenario-" + sc.name, cfg: comp.Apply(sc.cfg), tr: tr})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, fastTrace, _ := tracedRun(t, c.cfg, c.tr, c.sampleEvery, false)
			slow, slowTrace, events := tracedRun(t, c.cfg, c.tr, c.sampleEvery, true)
			if fast.Drops == 0 {
				t.Fatal("no drops: the case does not exercise the drop-retry loop")
			}
			if slots := slow.Packets + slow.Drops; events < slots {
				t.Fatalf("per-slot reference fired %d model events for %d link slots: it skipped slots", events, slots)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("Results differ:\nfast-forward: %+v\nper-slot:     %+v", fast, slow)
			}
			if got, want := fastTrace, slowTrace; !bytes.Equal(got, want) {
				t.Fatalf("model traces differ (%d vs %d bytes) at line %d",
					len(got), len(want), firstDiffLine(got, want))
			}
			t.Run("invariants", func(t *testing.T) {
				if n := countEvents(fastTrace, "drop"); n != fast.Drops {
					t.Errorf("trace has %d drop lines, Result %d drops", n, fast.Drops)
				}
				if n := countEvents(fastTrace, "complete"); n != fast.Packets {
					t.Errorf("trace has %d completions, Result %d packets", n, fast.Packets)
				}
				if fast.PTB.Allocs != fast.Packets || fast.PTB.Rejected != fast.Drops {
					t.Errorf("PTB allocs/rejected %d/%d, packets/drops %d/%d",
						fast.PTB.Allocs, fast.PTB.Rejected, fast.Packets, fast.Drops)
				}
				if want := fast.Packets * workload.RequestsPerPacket; fast.Requests != want {
					t.Errorf("%d requests, want %d", fast.Requests, want)
				}
			})
		})
	}
}

// countEvents counts the NDJSON trace lines whose event is ev.
func countEvents(nd []byte, ev string) uint64 {
	return uint64(bytes.Count(nd, []byte(`"ev":"`+ev+`"`)))
}

// tracedRun runs cfg over tr with a Tracer and returns the Result, the
// NDJSON trace without engine lines and, for a reference run, the model
// events fired. A reference run goes through RunPerSlot; any other run
// attaches the engine probe, so the comparison also shows that the
// probe leaves the packet path alone.
func tracedRun(t *testing.T, cfg core.Config, tr *trace.Trace, sampleEvery sim.Duration, reference bool) (core.Result, []byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Obs = &obs.Options{Tracer: obs.NewTracer(&buf), EngineEvents: !reference, SampleEvery: sampleEvery}
	s, err := core.NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var r core.Result
	var events uint64
	if reference {
		r, events, err = s.RunPerSlot()
	} else {
		r, err = s.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	return r, withoutEngineLines(buf.Bytes()), events
}

// withoutEngineLines drops the engine probe's sched/fire lines
// from an NDJSON trace, leaving the model's own events.
func withoutEngineLines(nd []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(nd), "\n") {
		if strings.Contains(line, `"ev":"sched"`) || strings.Contains(line, `"ev":"fire"`) {
			continue
		}
		out.WriteString(line)
	}
	return out.Bytes()
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b []byte) int {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}
