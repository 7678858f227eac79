package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hypertrio/internal/sim"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 0+1+1+7+8+1<<40 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// 0 -> bucket le 0 (n=1); 1,1 -> le 1 (n=2); 7 -> le 7 (n=1);
	// 8 -> le 15 (n=1); 1<<40 -> le 2^41-1 (n=1).
	want := []HistogramBucket{
		{Le: 0, N: 1}, {Le: 1, N: 2}, {Le: 7, N: 1}, {Le: 15, N: 1}, {Le: 1<<41 - 1, N: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", func() uint64 { return 1 }) // must not panic
	r.Gauge("b", func() float64 { return 1 })
	r.Histogram("c", &Histogram{})
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
	if _, ok := r.CounterValue("a"); ok {
		t.Fatal("nil registry resolved a counter")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Gauge("x", func() float64 { return 0 })
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := uint64(7)
	var h Histogram
	h.Observe(3)
	r.Counter("z.count", func() uint64 { return c })
	r.Gauge("a.gauge", func() float64 { return 2.5 })
	r.Histogram("m.hist", &h)

	if got := r.Names(); strings.Join(got, ",") != "a.gauge,m.hist,z.count" {
		t.Fatalf("names = %v", got)
	}
	if v, ok := r.CounterValue("z.count"); !ok || v != 7 {
		t.Fatalf("CounterValue = %d,%v", v, ok)
	}
	c++ // registry reads the live count, not a copy
	snap := r.Snapshot()
	if snap.Counters["z.count"] != 8 {
		t.Fatalf("snapshot counter = %d, want 8", snap.Counters["z.count"])
	}
	if snap.Gauges["a.gauge"] != 2.5 {
		t.Fatalf("snapshot gauge = %v", snap.Gauges["a.gauge"])
	}
	if snap.Histograms["m.hist"].Count != 1 {
		t.Fatalf("snapshot hist = %+v", snap.Histograms["m.hist"])
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Ev: "x"}) // must not panic
	if tr.Events() != 0 {
		t.Fatal("nil tracer counted events")
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("nil tracer flush: %v", err)
	}
}

// TestTracerGoldenNDJSON pins the hypertrio-trace/1 line format. If this
// test needs updating, bump TraceSchema.
func TestTracerGoldenNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(Event{T: 1542, Ev: "arrival", SID: 3})
	tr.Emit(Event{T: 2000, Ev: "devtlb_miss", SID: 3, IOVA: Hex(0xfff0_0000_1000), Shift: 12})
	tr.Emit(Event{T: 2902, Ev: "walk_end", SID: 3, IOVA: Hex(0xfff0_0000_1000), DurPs: 902})
	tr.Emit(Event{T: 4, Ev: "fire", Seq: 9, Label: "sample"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":0,"ev":"schema","label":"hypertrio-trace/1"}
{"t":1542,"ev":"arrival","sid":3}
{"t":2000,"ev":"devtlb_miss","sid":3,"iova":"0xfff000001000","shift":12}
{"t":2902,"ev":"walk_end","sid":3,"iova":"0xfff000001000","dur_ps":902}
{"t":4,"ev":"fire","seq":9,"label":"sample"}
`
	if got := buf.String(); got != want {
		t.Fatalf("trace format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if tr.Events() != 5 {
		t.Fatalf("events = %d, want 5", tr.Events())
	}
}

// TestSeriesGoldenCSV pins the -metrics CSV column set.
func TestSeriesGoldenCSV(t *testing.T) {
	s := &Series{
		Interval: 10 * sim.Microsecond,
		Points: []Point{
			{T: 10000000, Gbps: 187.5, PTBInUse: 3, PBHitRate: 0.25, DevTLBHitRate: 0.5, WalkersBusy: 2, WalkerUtil: 0.5},
			{T: 20000000, Gbps: 200},
		},
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_ps,gbps,ptb_in_use,pb_hit_rate,devtlb_hit_rate,walkers_busy,walker_util\n" +
		"10000000,187.5,3,0.25,0.5,2,0.5\n" +
		"20000000,200,0,0,0,0,0\n"
	if got := buf.String(); got != want {
		t.Fatalf("csv format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSeriesNilCSVHeaderOnly(t *testing.T) {
	var s *Series
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != seriesColumns+"\n" {
		t.Fatalf("nil series csv = %q", got)
	}
}

// TestMetricsExportGoldenJSON pins the hypertrio-metrics/1 document
// shape. If this test needs updating, bump MetricsSchema.
func TestMetricsExportGoldenJSON(t *testing.T) {
	var h Histogram
	h.Observe(5)
	r := NewRegistry()
	r.Counter("ptb.allocs", func() uint64 { return 12 })
	r.Gauge("ptb.in_use", func() float64 { return 4 })
	r.Histogram("core.miss_latency", &h)
	series := &Series{Interval: 10 * sim.Microsecond, Points: []Point{
		{T: 10000000, Gbps: 100, PTBInUse: 1},
	}}
	var buf bytes.Buffer
	if err := NewMetricsExport(series, r.Snapshot()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "schema": "hypertrio-metrics/1",
  "interval_ps": 10000000,
  "series": [
    {
      "t_ps": 10000000,
      "gbps": 100,
      "ptb_in_use": 1,
      "pb_hit_rate": 0,
      "devtlb_hit_rate": 0,
      "walkers_busy": 0,
      "walker_util": 0
    }
  ],
  "counters": {
    "ptb.allocs": 12
  },
  "gauges": {
    "ptb.in_use": 4
  },
  "histograms": {
    "core.miss_latency": {
      "count": 1,
      "sum": 5,
      "buckets": [
        {
          "le": 7,
          "n": 1
        }
      ]
    }
  }
}
`
	if got := buf.String(); got != want {
		t.Fatalf("metrics format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsExportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewMetricsExport(nil, Snapshot{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != MetricsSchema {
		t.Fatalf("schema = %v", doc["schema"])
	}
	if len(doc) != 1 {
		t.Fatalf("empty export has extra fields: %v", doc)
	}
}

// nopSink is an event sink that does nothing.
type nopSink struct{}

func (nopSink) HandleEvent(*sim.Engine, sim.Time, uint64) {}

func TestEngineProbeEmits(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	e := sim.NewEngine()
	e.SetProbe(EngineProbe{T: tr})
	e.ScheduleEvent(5, nopSink{}, 0)
	e.ScheduleEvent(7, nopSink{}, 0)
	e.Run()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Ev)
	}
	want := "schema,sched,sched,fire,fire"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("probe event kinds = %s, want %s", got, want)
	}
}
