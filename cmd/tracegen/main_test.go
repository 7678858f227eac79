package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndInspect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.hsio")
	if err := generate("websearch", "RR4", out, 6, 7, 0.003); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	if err := inspectTrace(out, 5); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := generate("bogus", "RR1", "", 4, 1, 0.01); err == nil {
		t.Error("bad benchmark accepted")
	}
	if err := generate("iperf3", "ZZ", "", 4, 1, 0.01); err == nil {
		t.Error("bad interleave accepted")
	}
	if err := generate("iperf3", "RR1", "/no/such/dir/x.hsio", 4, 1, 0.01); err == nil {
		t.Error("unwritable output accepted")
	}
}

func TestInspectErrors(t *testing.T) {
	if err := inspectTrace("/nonexistent.hsio", 0); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.hsio")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectTrace(bad, 0); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not detected: %v", err)
	}
}

func TestCollectAndMergePipeline(t *testing.T) {
	dir := t.TempDir()
	logs := filepath.Join(dir, "logs")
	if err := collectLogs(logs, "iperf3", 30, 42, 0.002); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(logs, "*.hlog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 { // 30 tenants = 2 runs
		t.Fatalf("got %d log files, want 2", len(files))
	}
	out := filepath.Join(dir, "merged.hsio")
	if err := mergeLogs(logs, "iperf3", "RR1", out, 42, 0.002); err != nil {
		t.Fatal(err)
	}
	if err := inspectTrace(out, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMergeErrors(t *testing.T) {
	if err := mergeLogs(t.TempDir(), "iperf3", "RR1", "", 1, 0.01); err == nil {
		t.Error("empty log dir accepted")
	}
	if err := mergeLogs(t.TempDir(), "bogus", "RR1", "", 1, 0.01); err == nil {
		t.Error("bad benchmark accepted")
	}
	// One log declaring 2^31 packets and carrying none.
	huge := t.TempDir()
	if err := os.WriteFile(filepath.Join(huge, "run000.hlog"), []byte("HLOG\x01\x00\x01\x01\x01\x00\x80\x80\x80\x80\x08"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeLogs(huge, "iperf3", "RR1", "", 1, 0.01); err == nil {
		t.Error("log declaring 2^31 absent packets accepted")
	}
}

// TestShapeValidation pins the upfront input validation: degenerate
// tenant counts, scales and dump lengths must fail cleanly before any
// file is produced.
func TestShapeValidation(t *testing.T) {
	if err := generate("iperf3", "RR1", "", 0, 1, 0.01); err == nil {
		t.Error("zero tenants accepted")
	}
	if err := generate("iperf3", "RR1", "", -4, 1, 0.01); err == nil {
		t.Error("negative tenants accepted")
	}
	if err := generate("iperf3", "RR1", "", 4, 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if err := generate("iperf3", "RR1", "", 4, 1, 1.01); err == nil {
		t.Error("scale > 1 accepted")
	}
	dir := t.TempDir()
	if err := collectLogs(dir, "iperf3", 0, 1, 0.01); err == nil {
		t.Error("collect with zero tenants accepted")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Error("collect wrote files despite invalid inputs")
	}
	if err := mergeLogs(dir, "iperf3", "RR1", "", 1, -0.5); err == nil {
		t.Error("merge with negative scale accepted")
	}
	out := filepath.Join(t.TempDir(), "x.hsio")
	if err := generate("iperf3", "RR1", out, 0, 1, 0.01); err == nil {
		t.Error("zero tenants accepted with -o")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("output file created despite invalid inputs")
	}
}

func TestInspectNegativeDump(t *testing.T) {
	if err := inspectTrace("/nonexistent.hsio", -1); err == nil ||
		!strings.Contains(err.Error(), "-dump") {
		t.Fatalf("negative dump not rejected upfront: %v", err)
	}
}
