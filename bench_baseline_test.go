package hypertrio_test

import (
	"encoding/json"
	"os"
	"testing"
)

// The run count, seed and seconds `make bench-compare` measures each
// workload at; BENCH_BASELINE.json must be recorded the same way.
const (
	gateRuns    = 3
	gateSeed    = 42
	gateSeconds = 5
)

// TestBenchBaselineCoversGate pins the committed baseline of the
// benchmark gate. hyperbench -compare skips a workload missing from
// either set, so an incomplete baseline would silently gate nothing
// for it: every workload of BENCHMARK.json needs gateRuns untraced,
// correct, failure-free runs carrying every end-to-end metric.
func TestBenchBaselineCoversGate(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &bench)
	var base struct {
		Schema string `json:"schema"`
		Runs   []struct {
			Workload  string         `json:"workload"`
			Seed      int64          `json:"seed"`
			Seconds   int            `json:"seconds"`
			Trace     int            `json:"trace"`
			Correct   bool           `json:"correct"`
			Attempted int            `json:"attempted"`
			Failed    int            `json:"failed"`
			Metrics   map[string]any `json:"metrics"`
		} `json:"runs"`
	}
	readJSON(t, "BENCH_BASELINE.json", &base)
	if base.Schema != "hyperbench-results/1" {
		t.Fatalf("schema %q, want hyperbench-results/1", base.Schema)
	}
	if len(bench.Workloads) == 0 || len(bench.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or no end-to-end metrics")
	}
	good := map[string]int{}
	for i, r := range base.Runs {
		if r.Trace != 0 {
			continue
		}
		if r.Seed != gateSeed || r.Seconds != gateSeconds {
			t.Errorf("run %d (%s): seed %d, %d s; the gate runs seed %d for %d s",
				i, r.Workload, r.Seed, r.Seconds, gateSeed, gateSeconds)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("run %d (%s): correct=%v, %d of %d replays failed",
				i, r.Workload, r.Correct, r.Failed, r.Attempted)
			continue
		}
		complete := true
		for _, m := range bench.EndToEnd {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("run %d (%s): no %s", i, r.Workload, m.Name)
				complete = false
			}
		}
		if complete {
			good[r.Workload]++
		}
	}
	for _, w := range bench.Workloads {
		if good[w.Name] < gateRuns {
			t.Errorf("%s: %d usable untraced runs, the gate needs %d", w.Name, good[w.Name], gateRuns)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
