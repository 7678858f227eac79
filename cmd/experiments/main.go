// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes the results to a directory (text and CSV
// per experiment, plus an index).
//
// Usage:
//
//	experiments                     # run everything into ./results
//	experiments -only fig10,fig12c  # a subset
//	experiments -quick              # reduced scale (CI smoke run)
//	experiments -parallel 1         # serial sweep execution
//	experiments -list               # show the registry
//
// Simulation cells fan out across -parallel worker goroutines; results/
// output is byte-identical for any worker count (per-experiment timings
// go to stdout, not the index, so a results directory diffs clean across
// runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hypertrio/internal/experiments"
	"hypertrio/internal/profiling"
	"hypertrio/internal/runner"
	"hypertrio/internal/sim"
)

// cliOptions carries every flag of the regeneration command.
type cliOptions struct {
	outDir     string
	only       string
	quick      bool
	seed       int64
	parallel   int
	sampleUs   int
	invariants bool
	list       bool
	cpuProfile string
	memProfile string
}

// parseFlags binds the flags to a fresh option set; errors and usage go
// to stderr.
func parseFlags(args []string, stderr io.Writer) (cliOptions, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o cliOptions
	fs.StringVar(&o.outDir, "out", "results", "output directory")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&o.quick, "quick", false, "reduced tenant counts and trace lengths")
	fs.Int64Var(&o.seed, "seed", 42, "trace construction seed")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "simulation worker goroutines (1 = serial)")
	fs.IntVar(&o.sampleUs, "sample-us", 0, "emit per-cell time series sampled every N simulated µs under <out>/series/<id>/ (0 = off)")
	fs.BoolVar(&o.invariants, "invariants", false, "compose the conservation-checking pipeline stage into every cell (transparent; violations fail the run)")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the sweep to FILE")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-sweep, GC-settled) to FILE")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(stderr, "experiments:", err)
		return o, err
	}
	return o, nil
}

// cliMain is main minus the process exit, so tests can drive the full
// argv-to-exit-code path: 0 success, 1 runtime failure, 2 flag misuse.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err == flag.ErrHelp {
		return 0 // -h prints usage and is not an error (matches flag.ExitOnError)
	}
	if err != nil {
		return 2
	}
	if o.list {
		for _, e := range experiments.All {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// Profiling brackets the whole sweep; output paths are validated here,
	// before any experiment runs.
	prof, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	defer prof.Finish() // backstop; Finish is idempotent
	code := 0
	if err := run(o, stdout); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		code = 1
	}
	if err := prof.Finish(); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// validIDs lists the registry's experiment IDs in order.
func validIDs() []string {
	ids := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		ids[i] = e.ID
	}
	return ids
}

// selectExperiments resolves a -only list, reporting every unknown ID at
// once (before anything runs) along with the valid registry.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	if only == "" {
		return experiments.All, nil
	}
	var selected []experiments.Experiment
	var unknown []string
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.Lookup(id)
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", id))
			continue
		}
		selected = append(selected, e)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment(s) %s; valid IDs: %s",
			strings.Join(unknown, ", "), strings.Join(validIDs(), ", "))
	}
	return selected, nil
}

func run(o cliOptions, out io.Writer) error {
	if o.sampleUs < 0 {
		return fmt.Errorf("-sample-us must be >= 0, got %d", o.sampleUs)
	}
	opts := experiments.Options{
		Seed: o.seed, Quick: o.quick, Workers: o.parallel,
		SampleEvery: sim.Duration(o.sampleUs) * sim.Microsecond,
		Invariants:  o.invariants,
	}
	selected, err := selectExperiments(o.only)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	var index strings.Builder
	fmt.Fprintf(&index, "HyperTRIO experiment regeneration (quick=%v, seed=%d)\n", o.quick, o.seed)
	fmt.Fprintf(&index, "generated by cmd/experiments\n\n")
	for _, e := range selected {
		expStart := time.Now()
		fmt.Fprintf(out, "== %s: %s\n", e.ID, e.Title)
		expOpts := opts
		if opts.SampleEvery > 0 {
			expOpts.SeriesDir = filepath.Join(o.outDir, "series", e.ID)
		}
		tbl, err := e.Run(expOpts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		text := tbl.String()
		fmt.Fprintln(out, text)
		fmt.Fprintf(out, "   (%s)\n", time.Since(expStart).Round(time.Millisecond))
		if err := os.WriteFile(filepath.Join(o.outDir, e.ID+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.outDir, e.ID+".csv"), []byte(tbl.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&index, "%-8s %s\n", e.ID, e.Title)
	}
	cs := runner.Shared().Stats()
	fmt.Fprintf(out, "%d experiments in %s; workers=%d; trace cache: %d built, %d reused (%.1f%% hit rate)\n",
		len(selected), time.Since(start).Round(time.Millisecond), o.parallel,
		cs.Misses, cs.Hits, cs.HitRate()*100)
	return os.WriteFile(filepath.Join(o.outDir, "INDEX.txt"), []byte(index.String()), 0o644)
}
