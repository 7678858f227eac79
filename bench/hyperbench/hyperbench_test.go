package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeSize shrinks each workload to a few thousand packets.
var smokeSize = map[string]float64{
	"ht-1k":          0.05,
	"base-1k":        0.05,
	"ht-16-hits":     0.02,
	"ht-storm":       0.25,
	"ht-mega-stream": 0.05,
}

// TestWorkloadsBothModes runs every workload at reduced size through the
// end-to-end and the per-layer measurement. A correct record means every
// replay reproduced the first replay's digest and, in the traced run,
// that every layer replay matched the live counts within 1%.
func TestWorkloadsBothModes(t *testing.T) {
	bench := readBenchmarkFile(t)
	for _, w := range workloads {
		size, ok := smokeSize[w.name]
		if !ok {
			t.Fatalf("no smoke size for %s", w.name)
		}
		for _, traced := range []bool{false, true} {
			rec, err := measureRun(w, 7, size, time.Nanosecond, traced, "", io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d", w.name, traced, rec.Correct, rec.Failed)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestReplaysAgree checks that two replays of one workload give the same
// digest and that a different seed gives a different one.
func TestReplaysAgree(t *testing.T) {
	w, err := lookupWorkload("ht-storm")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, seed := range []int64{7, 7, 8} {
		p, err := setup(w, seed, smokeSize[w.name], 0)
		if err != nil {
			t.Fatal(err)
		}
		_, d, _, err := p.timedRun()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	if got[0] != got[1] || got[0] == got[2] {
		t.Errorf("digests %v: want two equal, then a different one", got)
	}
}

// TestDefinitionsMatchBenchmark holds the harness's metric and workload
// tables in step with BENCHMARK.json.
func TestDefinitionsMatchBenchmark(t *testing.T) {
	bench := readBenchmarkFile(t)
	type def struct{ name, unit, better string }
	var e2e, layer []def
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit, m.Better})
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, def{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		file []def
		code []metricDef
	}{{e2e, endToEndDefs}, {layer, perLayerDefs}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json has %d metrics, harness %d", len(c.file), len(c.code))
		}
		for i, d := range c.code {
			if c.file[i] != (def{d.name, d.unit, d.better}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, harness %+v", i, c.file[i], d)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1}, 0.25, 4.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBestRunS checks that the run time is assembled from each
// segment's fastest replay and scaled by the host clock.
func TestBestRunS(t *testing.T) {
	u := &untraced{clock: hostClock{times: []float64{2 * refCalibrationS}}}
	for _, segs := range [][]float64{{3, 1, 2}, {1, 4, 2}, {2, 2, 1}} {
		u.bestSegs.fold(segs)
		u.replays = append(u.replays, replay{})
	}
	if got := u.bestRunS(); got != 1.5 {
		t.Errorf("bestRunS = %v, want (1+1+1)/2", got)
	}
}

// TestSegmentEnds checks that layer logs are cut into segments of the
// requested size and that a wide sim entry is never split.
func TestSegmentEnds(t *testing.T) {
	if got := segmentEnds(7, 3); fmt.Sprint(got) != "[3 6 7]" {
		t.Errorf("segmentEnds(7, 3) = %v, want [3 6 7]", got)
	}
	ops := []uint32{1, simWide, 0, 5, 0, 2, 0}
	if got := simSegmentEnds(ops, 2); fmt.Sprint(got) != "[4 6 7]" {
		t.Errorf("simSegmentEnds = %v, want [4 6 7]", got)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 75, 125}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same", parent, true, "unchanged"},
		{"faster", shift(1.2), true, "improved"},
		{"slower beyond bound", shift(0.85), true, "regressed"},
		{"slower within bound", shift(0.95), true, "unchanged"},
		{"lower is better", shift(0.8), false, "improved"},
		{"spread wider than bound", noisy, true, "unresolved"},
	} {
		if got, _ := verdict(parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDecoderRejectsUnknownEvents keeps the decoder from silently
// skipping calls it cannot replay.
func TestDecoderRejectsUnknownEvents(t *testing.T) {
	d := newDecoder(nil, true, true, 1)
	in := `{"t":0,"ev":"schema","label":"hypertrio-trace/1"}` + "\n" + `{"t":5,"ev":"remap","sid":1,"iova":"0x1000","shift":12}` + "\n"
	if _, err := d.Write([]byte(in)); err != nil {
		t.Fatal(err)
	}
	if err := d.finish(); err == nil || !strings.Contains(err.Error(), "remap") {
		t.Errorf("finish() = %v, want a remap error", err)
	}
	var e event
	for _, bad := range []string{`{"t":1`, `{"t":x}`, `{"ev":"a\"b"}`, `{"sid":"1"}`} {
		if err := parseEvent([]byte(bad), &e); err == nil {
			t.Errorf("parseEvent(%s) accepted malformed input", bad)
		}
	}
}

// TestResultsRoundTrip appends runs to a results file and reads them
// back the way -compare does.
func TestResultsRoundTrip(t *testing.T) {
	path := t.TempDir() + "/set.json"
	for _, seed := range []int64{1, 2} {
		rec := runRecord{Workload: "ht-1k", Seed: seed, Metrics: map[string]recordMetric{"pkts_per_s": {Value: float64(seed)}}}
		if err := appendResult(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := values(untracedRuns(f, "ht-1k"), "pkts_per_s"); len(got) != 2 || got[1] != 2 {
		t.Errorf("values = %v, want [1 2]", got)
	}
	b, _ := json.Marshal(f)
	if !strings.Contains(string(b), resultsSchema) {
		t.Errorf("results file lacks its schema: %s", b)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(path); err == nil {
		t.Error("readResults accepted a foreign schema")
	}
}
