package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"text/tabwriter"
)

// resultsSchema names the results-file format: every run a set appends.
const resultsSchema = "hyperbench-results/1"

type resultsFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

// runRecord is one invocation's outcome, as -out appends it.
type runRecord struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	Trace      int                     `json:"trace"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Metrics    map[string]recordMetric `json:"metrics"`
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %s", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// appendResult adds one run to the results file at path, creating it.
func appendResult(path string, rec runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{Schema: resultsSchema}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// benchMetric is one metric entry; per-layer metrics have no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares a parent set a with a change set b of one metric's
// run values, following the paired-runs rule: a gain needs the change
// to win at least nine tenths of the pairs and the medians to differ by
// more than the parent's quartile spread; a regression is a median worse
// by more than the bound; a spread wider than the bound is unresolved
// unless every change run beats every parent run.
func verdict(a, b []float64, higher bool, bound float64) (string, float64) {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	pairs, won := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			won++
		}
	}
	wins := ratio(float64(won), float64(pairs))
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	worse := (mb - ma) / ma
	if higher {
		worse = -worse
	}
	spread := math.Max(qa3-qa1, qb3-qb1) / ma
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	gain := wins >= 0.9 && better(mb, ma) && math.Abs(mb-ma) > qa3-qa1
	switch {
	case worse > bound:
		return "regressed", wins
	case spread > bound && !allBetter:
		return "unresolved", wins
	case gain:
		return "improved", wins
	}
	return "unchanged", wins
}

// compareSets prints the per-workload, per-metric comparison of two
// results files and reports whether any pairing regressed.
func compareSets(bench *benchmarkFile, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [p25, p75] n\tB median [p25, p75] n\tB vs A\tB wins\tbound\tverdict")
	regressed := false
	for _, wl := range bench.Workloads {
		ra, rb := untracedRuns(a, wl.Name), untracedRuns(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v, wins := verdict(va, vb, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.2f\t%.0f%%\t%s\n", wl.Name, m.Name, m.Unit,
				summary(va), summary(vb), 100*(median(vb)/median(va)-1), wins, 100*m.Bound, v)
		}
		fa, fb := failedRatio(ra), failedRatio(rb)
		v := "unchanged"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_ratio\tratio\t%.4g\t%.4g\t\t\t0\t%s\n", wl.Name, fa, fb, v)
	}
	return regressed, tw.Flush()
}

func untracedRuns(f *resultsFile, workload string) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []runRecord, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", median(xs), q1, q3, len(xs))
}

func failedRatio(runs []runRecord) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
