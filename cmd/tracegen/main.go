// Command tracegen drives the HyperSIO trace pipeline: it constructs
// hyper-tenant traces directly (Trace Constructor), or reproduces the
// paper's two-stage flow — emulated log-collection runs of at most 24
// tenants each, written as per-run HLOG files, merged afterwards into one
// HSIO trace. It also inspects existing trace files.
//
// Usage:
//
//	tracegen -benchmark websearch -tenants 1024 -interleave RR1 -scale 0.01 -o web1024.hsio
//	tracegen -collect logs/ -benchmark iperf3 -tenants 50 -scale 0.01
//	tracegen -merge logs/ -benchmark iperf3 -tenants 50 -interleave RR4 -scale 0.01 -o merged.hsio
//	tracegen -inspect web1024.hsio -dump 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hypertrio"
	"hypertrio/internal/collector"
	"hypertrio/internal/stats"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// cliMain is main minus the process exit, so tests can drive the full
// argv-to-exit-code path: 0 success, 1 runtime failure, 2 flag misuse.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark  = fs.String("benchmark", "iperf3", "workload: iperf3, mediastream, websearch")
		tenants    = fs.Int("tenants", 64, "number of concurrent tenants")
		interleave = fs.String("interleave", "RR1", "inter-tenant interleaving")
		seed       = fs.Int64("seed", 42, "construction seed")
		scale      = fs.Float64("scale", 0.01, "trace scale in (0,1]")
		out        = fs.String("o", "", "output file for the binary trace (default: stdout summary only)")
		inspect    = fs.String("inspect", "", "read and summarize an existing trace file")
		dump       = fs.Int("dump", 0, "with -inspect: print the first N packets")
		collect    = fs.String("collect", "", "emulate log-collection runs and write per-run HLOG files into this directory")
		merge      = fs.String("merge", "", "merge per-run HLOG files from this directory into one trace")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0 // -h prints usage and is not an error (matches flag.ExitOnError)
	} else if err != nil {
		return 2
	}

	var err error
	switch {
	case *inspect != "":
		err = inspectTrace(*inspect, *dump)
	case *collect != "":
		err = collectLogs(*collect, *benchmark, *tenants, *seed, *scale)
	case *merge != "":
		err = mergeLogs(*merge, *benchmark, *interleave, *out, *seed, *scale)
	default:
		err = generate(*benchmark, *interleave, *out, *tenants, *seed, *scale)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stderr))
}

// validateShape rejects bad generation inputs before any work happens,
// so the command exits cleanly (non-zero, one-line error) instead of
// silently producing an empty or partial artifact.
func validateShape(tenants int, scale float64) error {
	if tenants <= 0 || tenants > trace.MaxTenants {
		return fmt.Errorf("-tenants must be in 1..%d, got %d", trace.MaxTenants, tenants)
	}
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale must be in (0,1], got %g", scale)
	}
	return nil
}

func generate(benchmark, interleave, out string, tenants int, seed int64, scale float64) error {
	if err := validateShape(tenants, scale); err != nil {
		return err
	}
	kind, err := hypertrio.ParseBenchmark(benchmark)
	if err != nil {
		return err
	}
	iv, err := hypertrio.ParseInterleave(interleave)
	if err != nil {
		return err
	}
	tr, err := hypertrio.ConstructTrace(hypertrio.TraceConfig{
		Benchmark: kind, Tenants: tenants, Interleave: iv, Seed: seed, Scale: scale,
	})
	if err != nil {
		return err
	}
	summarize(tr)
	return writeTrace(out, tr)
}

// writeTrace writes tr to out, when out is set, and reports its size.
func writeTrace(out string, tr *trace.Trace) error {
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return fmt.Errorf("writing %s: %w", out, err)
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s bytes)\n", out, stats.Count(uint64(info.Size())))
	return f.Close()
}

func inspectTrace(path string, dump int) error {
	if dump < 0 {
		return fmt.Errorf("-dump must be >= 0, got %d", dump)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	summarize(tr)
	if dump > 0 {
		if dump > len(tr.Packets) {
			dump = len(tr.Packets)
		}
		fmt.Printf("\nfirst %d packets:\n", dump)
		for i, p := range tr.Packets[:dump] {
			unmap := ""
			if p.UnmapIOVA != 0 {
				unmap = fmt.Sprintf("  [unmap %#x/%d]", p.UnmapIOVA, p.UnmapShift)
			}
			fmt.Printf("  %4d  sid=%-4d ring=%#x data=%#x mbox=%#x%s\n",
				i, p.SID, p.Ring, p.Data, p.Mailbox, unmap)
		}
	}
	return nil
}

func collectLogs(dir, benchmark string, tenants int, seed int64, scale float64) error {
	if err := validateShape(tenants, scale); err != nil {
		return err
	}
	kind, err := hypertrio.ParseBenchmark(benchmark)
	if err != nil {
		return err
	}
	c, err := collector.New(workload.ProfileFor(kind), seed, scale)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	runs := collector.Runs(tenants)
	fmt.Printf("collecting %d tenants over %d emulated runs (%d slots/run)...\n",
		tenants, runs, collector.MaxSlotsPerRun)
	for run := 0; run < runs; run++ {
		slots := collector.MaxSlotsPerRun
		if remaining := tenants - run*collector.MaxSlotsPerRun; remaining < slots {
			slots = remaining
		}
		logs, err := c.CollectRun(run, slots)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("run%03d.hlog", run))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := collector.WriteLogs(f, run, logs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		pkts := 0
		for _, l := range logs {
			pkts += len(l.Packets)
		}
		fmt.Printf("  %s: %d tenants, %s packets\n", path, len(logs), stats.Count(uint64(pkts)))
	}
	return nil
}

func mergeLogs(dir, benchmark, interleave, out string, seed int64, scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale must be in (0,1], got %g", scale)
	}
	kind, err := hypertrio.ParseBenchmark(benchmark)
	if err != nil {
		return err
	}
	iv, err := hypertrio.ParseInterleave(interleave)
	if err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.hlog"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .hlog files in %s", dir)
	}
	sort.Strings(paths)
	var logs []collector.TenantLog
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, runLogs, err := collector.ReadLogs(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		logs = append(logs, runLogs...)
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].SID < logs[j].SID })
	tr, err := collector.Merge(logs, kind, workload.ProfileFor(kind), iv, seed, scale)
	if err != nil {
		return err
	}
	summarize(tr)
	return writeTrace(out, tr)
}

func summarize(tr *trace.Trace) {
	fmt.Printf("trace: %s, %d tenants, %v interleave, seed %d, scale %g\n",
		tr.Benchmark, tr.Tenants, tr.Interleave, tr.Seed, tr.Scale)
	fmt.Printf("  packets:  %s (%s translation requests)\n",
		stats.Count(uint64(len(tr.Packets))), stats.Count(uint64(tr.Requests())))
	fmt.Printf("  budgets:  min %s, max %s requests/tenant\n",
		stats.Count(uint64(tr.MinTenantBudget())), stats.Count(uint64(tr.MaxTenantBudget())))
	unmaps := 0
	for _, p := range tr.Packets {
		if p.UnmapIOVA != 0 {
			unmaps++
		}
	}
	fmt.Printf("  unmaps:   %s driver page recycles\n", stats.Count(uint64(unmaps)))
	if n := len(tr.Packets); n > 0 {
		perPkt := float64(tr.Requests()) / float64(n)
		if perPkt != float64(workload.RequestsPerPacket) {
			fmt.Printf("  WARNING: %.2f requests/packet (expected %d)\n", perPkt, workload.RequestsPerPacket)
		}
	}
}
