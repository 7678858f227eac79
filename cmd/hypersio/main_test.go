package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertrio"
	"hypertrio/internal/fault"
	"hypertrio/internal/obs"
	"hypertrio/internal/scenario"
	"hypertrio/internal/sim"
	"hypertrio/internal/trace"
)

// base returns a small, valid option set tests then perturb.
func base() options {
	return options{
		benchmark:  "iperf3",
		interleave: "RR1",
		design:     "hypertrio",
		tenants:    8,
		seed:       1,
		scale:      0.002,
		linkGbps:   200,
		sampleUs:   10,
	}
}

func buildTrace() (*hypertrio.Trace, error) {
	return hypertrio.ConstructTrace(hypertrio.TraceConfig{
		Benchmark:  hypertrio.Iperf3,
		Tenants:    4,
		Interleave: hypertrio.RR1,
		Seed:       1,
		Scale:      0.002,
	})
}

func writeTrace(w io.Writer, tr *hypertrio.Trace) error { return trace.Write(w, tr) }

func TestRunBasic(t *testing.T) {
	o := base()
	o.verbose = true
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunOverrides(t *testing.T) {
	// Custom PTB, DevTLB size, policy, no prefetch, serial.
	o := base()
	o.benchmark, o.interleave, o.design = "websearch", "RR4", "base"
	o.policy = "lru"
	o.tenants = 4
	o.linkGbps = 100
	o.ptb, o.devtlbSize = 8, 1024
	o.noPrefetch, o.serial = true, true
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string // a substring of the error, when set
	}{
		{"bad benchmark", func(o *options) { o.benchmark = "nope" }, ""},
		{"bad interleave", func(o *options) { o.interleave = "XX" }, ""},
		{"bad design", func(o *options) { o.design = "fancy" }, ""},
		{"bad policy", func(o *options) { o.policy = "bogus" }, "lru"},
		{"removed policy", func(o *options) { o.policy = "fifo" }, "lru"},
		{"zero tenants", func(o *options) { o.tenants = 0 }, ""},
		{"negative tenants", func(o *options) { o.tenants = -3 }, ""},
		{"zero scale", func(o *options) { o.scale = 0 }, ""},
		{"scale above one", func(o *options) { o.scale = 1.5 }, ""},
		{"negative link", func(o *options) { o.linkGbps = -1 }, ""},
		{"negative ptb", func(o *options) { o.ptb = -1 }, ""},
		{"negative devtlb", func(o *options) { o.devtlbSize = -8 }, ""},
		{"indivisible devtlb", func(o *options) { o.devtlbSize = 100 }, ""},
		{"negative sample interval", func(o *options) { o.sampleUs = -1 }, ""},
		{"engine trace without trace file", func(o *options) { o.engineEvents = true }, ""},
		{"missing replay file", func(o *options) { o.replayFile = "/nonexistent.hsio" }, ""},
		{"tenants above cap", func(o *options) { o.tenants = 1_000_001; o.compactRNG = true }, ""},
		{"huge standard-RNG population", func(o *options) { o.tenants = 200_000 }, ""},
	}
	for _, c := range cases {
		o := base()
		c.mut(&o)
		err := run(o, io.Discard)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestOpenSourceBySize pins the size-based choice without simulating:
// a trace past trace.MaxPackets (2,000 iperf3 tenants at paper scale,
// ~45M packets) streams online; one under the cap is materialized.
func TestOpenSourceBySize(t *testing.T) {
	over := base()
	over.tenants, over.scale = 2000, 1
	var out strings.Builder
	src, err := openSource(over, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*trace.Stream); !ok {
		t.Fatalf("over the cap: got %T, want *trace.Stream", src)
	}
	if !strings.Contains(out.String(), "streaming it online") {
		t.Errorf("over the cap: the fallback line is missing from\n%s", out.String())
	}
	src, err = openSource(base(), nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*trace.TraceSource); !ok {
		t.Fatalf("under the cap: got %T, want *trace.TraceSource", src)
	}
}

// TestValidationBeforeSimulation checks that input validation fires
// before any output file is created: a bad tenant count must not leave
// an empty trace file behind.
func TestValidationBeforeSimulation(t *testing.T) {
	o := base()
	o.tenants = -1
	o.traceFile = filepath.Join(t.TempDir(), "out.ndjson")
	if err := run(o, io.Discard); err == nil {
		t.Fatal("expected error")
	}
	if _, err := os.Stat(o.traceFile); !os.IsNotExist(err) {
		t.Error("trace file created before validation failed")
	}
}

func TestRunFromReplayFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.hsio")
	if err := writeTestTrace(path); err != nil {
		t.Fatal(err)
	}
	o := base()
	// Construction inputs are ignored when replaying.
	o.benchmark, o.tenants, o.scale = "", 0, 0
	o.replayFile = path
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestTraceAndMetricsOutput runs with every observability flag on and
// validates both artifacts against their published schemas.
func TestTraceAndMetricsOutput(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.traceFile = filepath.Join(dir, "out.ndjson")
	o.engineEvents = true
	o.metricsFile = filepath.Join(dir, "out.json")
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}

	// NDJSON trace: schema header first, every line well-formed, model
	// and engine events present.
	f, err := os.Open(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	kinds := map[string]int{}
	first := true
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if first {
			if ev.Ev != "schema" || ev.Label != obs.TraceSchema {
				t.Fatalf("first line is not the schema header: %+v", ev)
			}
			first = false
		}
		kinds[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arrival", "complete", "walk_start", "walk_end", "sched", "fire"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events (kinds: %v)", want, kinds)
		}
	}

	// Metrics JSON: schema tag, non-empty series and counters.
	b, err := os.ReadFile(o.metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.MetricsExport
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != obs.MetricsSchema {
		t.Fatalf("metrics schema = %q", doc.Schema)
	}
	if len(doc.Series) == 0 {
		t.Fatal("metrics export has no time series")
	}
	if doc.Counters["core.packets"] == 0 || doc.Counters["ptb.allocs"] == 0 {
		t.Fatalf("metrics export missing counters: %v", doc.Counters)
	}
}

// TestMetricsCSVOutput checks the .csv spelling of -metrics.
func TestMetricsCSVOutput(t *testing.T) {
	o := base()
	o.metricsFile = filepath.Join(t.TempDir(), "out.csv")
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if lines[0] != "t_ps,gbps,ptb_in_use,pb_hit_rate,devtlb_hit_rate,walkers_busy,walker_util" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("csv has no data rows")
	}
}

func writeTestTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := buildTrace()
	if err != nil {
		return err
	}
	return writeTrace(f, tr)
}

// writeMutatedTrace writes the 4-tenant test trace after mutate and
// returns its path: the crafted-replay-file cases.
func writeMutatedTrace(t *testing.T, mutate func(*trace.Trace)) string {
	t.Helper()
	tr, err := buildTrace()
	if err != nil {
		t.Fatal(err)
	}
	mutate(tr)
	path := filepath.Join(t.TempDir(), "crafted.hsio")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// mustRead returns the contents of the file at path.
func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writePlan writes a small valid fault plan and returns its path.
func writePlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := &fault.Plan{
		Seed:  1,
		Retry: fault.RetryPolicy{MaxRetries: 2, Backoff: 100 * sim.Nanosecond, BackoffMax: sim.Microsecond},
		Events: []fault.Event{
			{At: sim.Time(0).Add(10 * sim.Microsecond), Kind: fault.InvalidateTenant, SID: 1},
			{At: sim.Time(0).Add(20 * sim.Microsecond), Kind: fault.FlushAll},
		},
	}
	var buf strings.Builder
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeScenario commits a scaled-down library scenario to disk and
// returns its path.
func writeScenario(t *testing.T, name string, scale float64) string {
	t.Helper()
	sc, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.WithScale(scale)
	path := filepath.Join(t.TempDir(), name+".json")
	var buf strings.Builder
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIScenarioRun drives -scenario end to end: the scenario banner,
// the per-class breakdown, and — for the storm — the injector report.
// A file path and a committed library name both resolve.
func TestCLIScenarioRun(t *testing.T) {
	path := writeScenario(t, "noisy-neighbor", 0.05)
	var stdout, stderr strings.Builder
	if got := cliMain([]string{"-scenario", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"scenario noisy-neighbor:", "2 classes, 16 tenants, 1 phases",
		"class victim", "class bully", "Jain"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}

	// Committed names resolve without a file: the full-scale storm runs
	// by name to completion and prints its composed fault script's
	// accounting.
	var stormOut strings.Builder
	if got := cliMain([]string{"-scenario", "storm"}, &stormOut, &stderr); got != 0 {
		t.Fatalf("storm exit %d, stderr: %s", got, stderr.String())
	}
	for _, want := range []string{"scenario storm:", "800 scripted fault events", "33192 packets", "faults: 800 scripted events applied"} {
		if !strings.Contains(stormOut.String(), want) {
			t.Errorf("storm stdout lacks %q:\n%s", want, stormOut.String())
		}
	}
}

// TestCLIScenarioErrors covers -scenario misuse: conflicting flags,
// unresolvable names, and invalid documents all fail cleanly.
func TestCLIScenarioErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hypertrio-scenario/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	plan := writePlan(t)
	cases := []struct {
		name string
		args []string
	}{
		{"with replay", []string{"-scenario", "storm", "-replay", "x.hsio"}},
		{"with faults", []string{"-scenario", "storm", "-faults", plan}},
		{"with describe", []string{"-scenario", "storm", "-describe"}},
		{"unknown name", []string{"-scenario", "hurricane"}},
		{"bad document", []string{"-scenario", bad}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := cliMain(c.args, &stdout, &stderr); got != 1 {
				t.Fatalf("cliMain(%v) = %d, want 1 (stderr: %s)", c.args, got, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("failure produced nothing on stderr")
			}
		})
	}
}

// TestCLIExitCodes drives the full argv-to-exit-code path: flag misuse
// exits 2, runtime failures exit 1, success exits 0 — with errors on
// stderr and the report on stdout.
func TestCLIExitCodes(t *testing.T) {
	plan := writePlan(t)
	badPlan := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPlan, []byte(`{"schema":"nope/9","events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	farSIDPlan := filepath.Join(t.TempDir(), "far-sid.json")
	if err := os.WriteFile(farSIDPlan, []byte(`{"schema":"hypertrio-faultplan/1","events":[{"at_ns":1000,"kind":"detach","sid":4000000000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A 2 MB remap of the init region, which 4 KB pages already occupy,
	// would detach a guest table that the page-walk caches may hold.
	clobberPlan := filepath.Join(t.TempDir(), "clobber.json")
	if err := os.WriteFile(clobberPlan, []byte(`{"schema":"hypertrio-faultplan/1","events":[{"at_ns":1000,"kind":"remap","sid":1,"iova":"0xf0000000","shift":21}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The chipset counts a walk's faulted attempts in a uint8.
	retryPlan := filepath.Join(t.TempDir(), "retry-256.json")
	if err := os.WriteFile(retryPlan, []byte(`{"schema":"hypertrio-faultplan/1","retry":{"max_retries":256},"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-tenants", "4", "-scale", "0.002"}
	badSID := writeMutatedTrace(t, func(tr *trace.Trace) { tr.Packets[len(tr.Packets)/2].SID = 9 })
	hugeTenants := writeMutatedTrace(t, func(tr *trace.Trace) { tr.Tenants = 1 << 30 })
	badBenchmark := writeMutatedTrace(t, func(tr *trace.Trace) {
		tr.Benchmark = 9
		tr.Profile = hypertrio.Profile{}
	})
	badProfile := writeMutatedTrace(t, func(tr *trace.Trace) { tr.Profile.Streams = 0 })
	trailingPlan := filepath.Join(t.TempDir(), "trailing-plan.json")
	if err := os.WriteFile(trailingPlan, append(mustRead(t, plan), "junk"...), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarioPath := writeScenario(t, "noisy-neighbor", 0.002)
	trailingScenario := filepath.Join(t.TempDir(), "trailing-scenario.json")
	if err := os.WriteFile(trailingScenario, append(mustRead(t, scenarioPath), mustRead(t, scenarioPath)...), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"malformed value", []string{"-tenants", "many"}, 2},
		{"stray positional argument", []string{"extra"}, 2},
		{"removed shards flag", []string{"-shards", "2"}, 2},
		{"help", []string{"-h"}, 0},
		{"unknown design", []string{"-design", "fancy"}, 1},
		{"zero inter-arrival gap", []string{"-design", "base", "-tenants", "2", "-scale", "0.001", "-link", "1e9"}, 1},
		{"NaN scale", []string{"-tenants", "4", "-scale", "NaN"}, 1},
		{"conflicting trace-engine", []string{"-trace-engine"}, 1},
		{"conflicting describe+faults", []string{"-describe", "-faults", plan}, 1},
		{"missing faults file", append(small, "-faults", "/nonexistent/plan.json"), 1},
		{"bad faults schema", append(small, "-faults", badPlan), 1},
		{"faults file with trailing data", append(small, "-faults", trailingPlan), 1},
		{"scenario file with trailing data", []string{"-scenario", trailingScenario}, 1},
		{"out-of-range SID plan", []string{"-tenants", "4", "-scale", "0.001", "-faults", farSIDPlan}, 1},
		{"bad devtlb geometry", append(small, "-devtlb-entries", "24"), 1},
		{"bad chipset-iotlb geometry", append(small, "-chipset-iotlb", "24"), 1},
		{"bad devtlb geometry describe", []string{"-devtlb-entries", "24", "-describe"}, 1},
		{"devtlb past the entry cap", append(small, "-devtlb-entries", "8589934592"), 1},
		{"devtlb past the entry cap describe", []string{"-devtlb-entries", "8589934592", "-describe"}, 1},
		{"chipset-iotlb past the entry cap", append(small, "-chipset-iotlb", "8589934592"), 1},
		{"removed stream flag", []string{"-stream"}, 2},
		{"huge standard-RNG population", []string{"-tenants", "200000", "-scale", "0.001"}, 1},
		{"describe", []string{"-describe"}, 0},
		{"faulted run", append(small, "-faults", plan), 0},
		{"2 MB remap over 4 KB tables", append(small, "-faults", clobberPlan), 1},
		{"256 retries", append(small, "-faults", retryPlan), 1},
		{"bad cpuprofile path", append(small, "-cpuprofile", "/nonexistent/dir/cpu.pprof"), 1},
		{"bad memprofile path", append(small, "-memprofile", "/nonexistent/dir/mem.pprof"), 1},
		{"replay packet SID beyond tenants", []string{"-replay", badSID}, 1},
		{"replay 2^30 tenants with 4 stats", []string{"-replay", hugeTenants}, 1},
		{"replay unknown benchmark", []string{"-replay", badBenchmark}, 1},
		{"replay bad embedded profile", []string{"-replay", badProfile}, 1},
		{"sample interval past the clock range", append(small, "-sample-us", "9223372036855"), 1},
		{"sample interval wrapping negative", append(small, "-sample-us", "10000000000000"), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := cliMain(c.args, &stdout, &stderr); got != c.want {
				t.Fatalf("cliMain(%v) = %d, want %d (stderr: %s)", c.args, got, c.want, stderr.String())
			}
			if c.want != 0 && stderr.Len() == 0 {
				t.Error("failure produced nothing on stderr")
			}
		})
	}
	var stdout, stderr strings.Builder
	if cliMain(append(small, "-faults", retryPlan), &stdout, &stderr); !strings.Contains(stderr.String(), "max_retries") {
		t.Errorf("256 retries: stderr %q does not name max_retries", stderr.String())
	}
}

// TestCLIProfilesWritten runs a tiny simulation under both profile flags
// and checks the pprof outputs exist and are non-empty. Bad paths are
// covered by TestCLIExitCodes: they fail before any simulation work.
func TestCLIProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr strings.Builder
	args := []string{"-tenants", "4", "-scale", "0.002", "-cpuprofile", cpu, "-memprofile", mem}
	if got := cliMain(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestCLIFaultedRunReportsInjector checks -faults end to end: the plan
// is loaded, applied during the run, and its accounting printed.
func TestCLIFaultedRunReportsInjector(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-tenants", "4", "-scale", "0.002", "-faults", writePlan(t)}
	if got := cliMain(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"fault plan", "2 scripted events", "faults: 2 scripted events applied", "1 flushes"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}
