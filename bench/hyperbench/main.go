// Command hyperbench is the repository's end-to-end and per-layer
// benchmark: a closed batch that replays one hyper-tenant workload
// through core.System back to back, one simulation at a time, and
// reports host-time metrics with every replay's Result checked against
// a committed digest. See bench/README.md for the workloads and metrics.
//
//	hyperbench -workload ht-1k -seed 42 -seconds 10 -trace 0
//	hyperbench -workload ht-1k -trace 1        # per-layer ledger
//	hyperbench -compare A.json B.json          # parent set vs change set
//	hyperbench -update-digests                 # re-record digests at seed 42
//
// Every run prints one line per metric and, last, one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperbench:", err)
		os.Exit(1)
	}
}

// errRegressed makes -compare exit non-zero when a pairing regressed.
var errRegressed = errors.New("at least one metric regressed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hyperbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", digestSeed, "trace and scenario seed")
	seconds := fs.Int("seconds", 10, "time budget of the timed replays")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	digests := fs.String("digests", "bench/testdata/digests.json", "committed Result digests at seed 42")
	out := fs.String("out", "", "append this run's record to a results file")
	compare := fs.Bool("compare", false, "compare two results files given as arguments (parent, change)")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	update := fs.Bool("update-digests", false, "record every workload's Result digest at seed 42")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		bench, err := readBenchmark(*benchPath)
		if err != nil {
			return err
		}
		regressed, err := compareSets(bench, fs.Arg(0), fs.Arg(1), stdout)
		if err == nil && regressed {
			err = errRegressed
		}
		return err
	case *update:
		return updateDigests(*digests, stdout)
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	want := ""
	if *seed == digestSeed {
		all, err := loadDigests(*digests)
		if err != nil {
			return err
		}
		if want = all[w.name]; want == "" {
			return fmt.Errorf("%s has no digest for %s; run -update-digests", *digests, w.name)
		}
	}
	rec, err := measureRun(w, *seed, 1, time.Duration(*seconds)*time.Second, *traced == 1, want, stdout)
	if err != nil {
		return err
	}
	rec.Seconds = *seconds
	if *out != "" {
		return appendResult(*out, rec)
	}
	return nil
}

// measureRun runs one workload in either mode, prints its metrics and
// the result line, and returns the run's record.
func measureRun(w workloadDef, seed int64, size float64, budget time.Duration, traced bool, want string, stdout io.Writer) (runRecord, error) {
	var (
		ms        []metric
		defs      = endToEndDefs
		failures  []string
		attempted int
		clock     *hostClock
	)
	if traced {
		defs = perLayerDefs
		t, err := runTraced(w, seed, size, budget, want)
		if err != nil {
			return runRecord{}, err
		}
		failures, attempted, clock = append(t.u.failures, t.failures...), t.u.attempts+1, &t.u.clock
		if t.passes > 0 {
			ms = t.perLayer()
		} else {
			for _, d := range defs {
				ms = append(ms, single(d.name, 0))
			}
		}
	} else {
		u, err := measure(w, seed, size, budget, want)
		if err != nil {
			return runRecord{}, err
		}
		failures, attempted, ms, clock = u.failures, u.attempts, u.endToEnd(), &u.clock
	}
	mode := "end to end"
	if traced {
		mode = "per layer"
	}
	fmt.Fprintf(stdout, "hyperbench %s seed=%d %s gomaxprocs=%d\n", w.name, seed, mode, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "  host times scaled by %.4f: calibration loop %.3f ms here, %.3f ms on the reference host\n",
		clock.scale(), 1e3*minOf(clock.times), 1e3*refCalibrationS)
	for _, f := range failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}
	correct := len(failures) == 0
	for i := range ms {
		// A run whose replays all failed has nothing to measure.
		for _, v := range []*float64{&ms[i].value, &ms[i].p25, &ms[i].p75} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v, correct = 0, false
			}
		}
	}
	printMetrics(stdout, defs, ms)
	if err := writeResultLine(stdout, defs, ms, attempted, len(failures), correct); err != nil {
		return runRecord{}, err
	}
	rec := runRecord{
		Workload: w.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Correct: correct, Attempted: attempted, Failed: len(failures),
		Metrics: map[string]recordMetric{},
	}
	if traced {
		rec.Trace = 1
	}
	for _, m := range ms {
		rec.Metrics[m.name] = recordMetric{Value: m.value, Unit: unitOf(defs, m.name), P25: m.p25, P75: m.p75, N: m.n}
	}
	return rec, nil
}

// updateDigests records each workload's Result digest at seed 42 from
// two replays, which must agree.
func updateDigests(path string, stdout io.Writer) error {
	all := map[string]string{}
	for _, w := range workloads {
		var got []string
		for i := 0; i < 2; i++ {
			p, err := setup(w, digestSeed, 1, 0)
			if err != nil {
				return err
			}
			_, d, _, err := p.timedRun()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			got = append(got, d)
		}
		if got[0] != got[1] {
			return fmt.Errorf("%s: two replays disagree (%s, %s)", w.name, got[0], got[1])
		}
		all[w.name] = got[0]
		fmt.Fprintf(stdout, "%-16s %s\n", w.name, got[0])
	}
	return writeDigests(path, all)
}
