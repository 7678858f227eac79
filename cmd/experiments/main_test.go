package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	dir := t.TempDir()
	if err := testRun(dir, "table2,fig8a", true, 42, 1, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table2.txt", "table2.csv", "fig8a.txt", "fig8a.csv", "INDEX.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
	idx, err := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(idx), "table2") || !strings.Contains(string(idx), "fig8a") {
		t.Fatalf("index incomplete:\n%s", idx)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	err := testRun(dir, "fig99", true, 1, 1, 0)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("error does not name the unknown ID: %v", err)
	}
	if !strings.Contains(err.Error(), "fig10") || !strings.Contains(err.Error(), "ext-isolation") {
		t.Errorf("error does not list the valid IDs: %v", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("output directory was created before validation failed")
	}
}

func TestRunUnknownExperimentsAllReported(t *testing.T) {
	err := testRun(t.TempDir(), "fig99, nope ,table2", true, 1, 1, 0)
	if err == nil {
		t.Fatal("unknown experiments accepted")
	}
	for _, want := range []string{`"fig99"`, `"nope"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %v does not report %s", err, want)
		}
	}
}

func TestRunUnwritableDir(t *testing.T) {
	if err := testRun("/proc/definitely/not/writable", "table2", true, 1, 1, 0); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

func TestRunWithSampling(t *testing.T) {
	dir := t.TempDir()
	if err := testRun(dir, "fig12b", true, 42, 1, 10); err != nil {
		t.Fatal(err)
	}
	series, err := filepath.Glob(filepath.Join(dir, "series", "fig12b", "cell-*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("sampling enabled but no per-cell series written")
	}
	b, err := os.ReadFile(series[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "t_ps,gbps,ptb_in_use,") {
		t.Fatalf("series CSV missing header: %q", string(b[:60]))
	}
}

func TestRunNegativeSampleRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if err := testRun(dir, "table2", true, 1, 1, -5); err == nil {
		t.Fatal("negative sample interval accepted")
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Error("output directory was created before validation failed")
	}
}

// testRun adapts the historical positional signature the tests were
// written against to the cliOptions struct.
func testRun(dir, only string, quick bool, seed int64, parallel, sampleUs int) error {
	return run(cliOptions{
		outDir: dir, only: only, quick: quick,
		seed: seed, parallel: parallel, sampleUs: sampleUs,
	}, io.Discard)
}

// TestCLIExitCodes drives the full argv-to-exit-code path: flag misuse
// exits 2, runtime failures exit 1, success exits 0.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"malformed value", []string{"-parallel", "lots"}, 2},
		{"stray positional argument", []string{"table2"}, 2},
		{"help", []string{"-h"}, 0},
		{"unknown experiment", []string{"-only", "fig99", "-quick"}, 1},
		{"negative sample interval", []string{"-only", "table2", "-sample-us", "-1"}, 1},
		{"sample interval past the clock range", []string{"-only", "table2", "-sample-us", "9223372036855"}, 1},
		{"removed shards flag", []string{"-shards", "2"}, 2},
		{"removed invariants flag", []string{"-invariants"}, 2},
		{"bad cpuprofile path", []string{"-only", "table2", "-quick", "-cpuprofile", "/nonexistent/dir/cpu.pprof"}, 1},
		{"bad memprofile path", []string{"-only", "table2", "-quick", "-memprofile", "/nonexistent/dir/mem.pprof"}, 1},
		{"list", []string{"-list"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			args := c.args
			if c.want == 1 {
				// Failing runs still need a scratch output dir target.
				args = append([]string{"-out", filepath.Join(t.TempDir(), "out")}, args...)
			}
			if got := cliMain(args, &stdout, &stderr); got != c.want {
				t.Fatalf("cliMain(%v) = %d, want %d (stderr: %s)", args, got, c.want, stderr.String())
			}
			if c.want != 0 && stderr.Len() == 0 {
				t.Error("failure produced nothing on stderr")
			}
		})
	}
}

// TestCLIProfilesWritten regenerates one quick experiment under both
// profile flags and checks the pprof outputs exist and are non-empty.
func TestCLIProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr strings.Builder
	args := []string{"-out", filepath.Join(dir, "out"), "-only", "table2", "-quick",
		"-parallel", "1", "-cpuprofile", cpu, "-memprofile", mem}
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

// TestCLIListNamesEveryExperiment pins -list against the registry,
// including the fault-injection extensions.
func TestCLIListNamesEveryExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if got := cliMain([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, stderr.String())
	}
	for _, want := range []string{"table2", "fig10", "ext-faults", "ext-churn"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output lacks %q:\n%s", want, stdout.String())
		}
	}
}
