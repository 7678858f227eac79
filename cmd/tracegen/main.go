// Command tracegen drives the HyperSIO Trace Constructor: it builds a
// hyper-tenant trace from the synthetic per-tenant generators, writes it
// as an HSIO file, and inspects existing trace files.
//
// Usage:
//
//	tracegen -benchmark websearch -tenants 1024 -interleave RR1 -scale 0.01 -o web1024.hsio
//	tracegen -inspect web1024.hsio -dump 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hypertrio"
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
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0 // -h prints usage and is not an error (matches flag.ExitOnError)
	} else if err != nil {
		return 2
	}

	var err error
	if *inspect != "" {
		err = inspectTrace(*inspect, *dump)
	} else {
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
