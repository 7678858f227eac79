package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are reported by untraced runs.
var endToEndDefs = []metricDef{
	{"pkts_per_s", "pkt/s", "higher"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"allocs_per_pkt", "allocs/pkt", "lower"},
}

// perLayerDefs are reported by traced runs, grouped by layer.
var perLayerDefs = []metricDef{
	{"trace.build_s", "s", "lower"},
	{"trace.next_ns", "ns", "lower"},

	{"core.newsystem_s", "s", "lower"},
	{"core.slots_per_pkt", "slots/pkt", "lower"},
	{"core.residual_ns_per_pkt", "ns/pkt", "lower"},
	{"core.residual_ratio", "ratio", "lower"},

	{"sim.events_per_pkt", "events/pkt", "lower"},
	{"sim.ns_per_event", "ns/event", "lower"},
	{"sim.ns_per_pkt", "ns/pkt", "lower"},

	{"ptb.ops_per_pkt", "ops/pkt", "lower"},
	{"ptb.reject_ratio", "ratio", "lower"},
	{"ptb.ns_per_pkt", "ns/pkt", "lower"},

	{"devtlb.lookups_per_pkt", "lookups/pkt", "lower"},
	{"devtlb.hit_ratio", "ratio", "higher"},
	{"devtlb.invalidates_per_pkt", "entries/pkt", "lower"},
	{"devtlb.ns_per_lookup", "ns/lookup", "lower"},
	{"devtlb.ns_per_pkt", "ns/pkt", "lower"},

	{"prefetch.issued_per_pkt", "issues/pkt", "lower"},
	{"prefetch.useful_ratio", "ratio", "higher"},
	{"prefetch.ns_per_pkt", "ns/pkt", "lower"},

	{"iommu.translations_per_pkt", "transl/pkt", "lower"},
	{"iommu.walks_per_pkt", "walks/pkt", "lower"},
	{"iommu.mem_accesses_per_translation", "accesses/transl", "lower"},
	{"iommu.cc_hit_ratio", "ratio", "higher"},
	{"iommu.l2pwc_hit_ratio", "ratio", "higher"},
	{"iommu.l3pwc_hit_ratio", "ratio", "higher"},
	{"memo.hit_ratio", "ratio", "higher"},
	{"iommu.ns_per_translation", "ns/transl", "lower"},
	{"iommu.ns_per_pkt", "ns/pkt", "lower"},

	{"mem.ns_per_walk", "ns/walk", "lower"},
	{"mem.allocs_per_walk", "allocs/walk", "lower"},

	{"fault.events_per_pkt", "events/pkt", "lower"},
	{"fault.rewalks_per_pkt", "rewalks/pkt", "lower"},
	{"scenario.compile_s", "s", "lower"},

	{"model.gbps", "Gb/s", "higher"},
	{"model.drop_ratio", "ratio", "lower"},
	{"model.miss_latency_ns", "ns", "lower"},
	{"model.jain", "ratio", "higher"},

	{"ledger.attributed_ns_per_pkt", "ns/pkt", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// metric is one measured value. Sampled metrics carry the quartiles and
// count of their per-replay samples; a single measurement has n = 1.
type metric struct {
	name     string
	value    float64
	p25, p75 float64
	n        int
}

// sampled reports value with the quartiles and count of the per-replay
// samples xs behind it.
func sampled(name string, value float64, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{name: name, value: value, p25: q1, p75: q3, n: len(xs)}
}

// medianOf reports the median of per-replay samples.
func medianOf(name string, xs []float64) metric { return sampled(name, median(xs), xs) }

func single(name string, v float64) metric {
	return metric{name: name, value: v, p25: v, p75: v, n: 1}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("hyperbench: undefined metric " + name) // the tables above are fixed
}

// printMetrics writes one human line per metric.
func printMetrics(w io.Writer, defs []metricDef, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %14.6g %-16s", m.name, m.value, unitOf(defs, m.name))
		if m.n > 1 {
			fmt.Fprintf(w, " p25 %.6g  p75 %.6g  n=%d", m.p25, m.p75, m.n)
		}
		fmt.Fprintln(w)
	}
}

// resultLine is the final stdout line every run prints.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResultLine(w io.Writer, defs []metricDef, ms []metric, attempted, failed int, correct bool) error {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricOutput{}}
	for _, m := range ms {
		out.Metrics[m.name] = metricOutput{Value: m.value, Unit: unitOf(defs, m.name)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
