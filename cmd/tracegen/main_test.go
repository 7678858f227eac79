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

// TestCLIExitCodes drives argv to exit code: 0 success, 1 runtime
// failure, 2 flag misuse. A rejected shape must write no trace. The
// "collect" and "merge" rows pin that the retired two-stage flags are
// unknown flags: HSIO traces come only from the Trace Constructor.
func TestCLIExitCodes(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"malformed value", []string{"-tenants", "many"}, 2},
		{"help", []string{"-h"}, 0},
		{"generate", []string{"-tenants", "4", "-scale", "0.002", "-o", filepath.Join(dir, "ok.hsio")}, 0},
		{"zero tenants", []string{"-tenants", "0", "-o", filepath.Join(dir, "zero.hsio")}, 1},
		{"2^40 tenants", []string{"-tenants", "1099511627776", "-o", filepath.Join(dir, "huge.hsio")}, 1},
		{"2^40 tenants collect", []string{"-collect", filepath.Join(dir, "huge-logs"), "-tenants", "1099511627776"}, 2},
		{"NaN scale", []string{"-tenants", "4", "-scale", "NaN", "-o", filepath.Join(dir, "nan.hsio")}, 1},
		{"NaN scale collect", []string{"-collect", filepath.Join(dir, "logs"), "-tenants", "4", "-scale", "NaN"}, 2},
		{"NaN scale merge", []string{"-merge", dir, "-tenants", "4", "-scale", "NaN"}, 2},
		{"missing trace", []string{"-inspect", filepath.Join(dir, "absent.hsio")}, 1},
		{"trace past the packet cap", []string{"-tenants", "2000", "-scale", "1", "-o", filepath.Join(dir, "long.hsio")}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := cliMain(c.args, &stderr); got != c.want {
				t.Fatalf("cliMain(%v) = %d, want %d (stderr: %s)", c.args, got, c.want, stderr.String())
			}
			if c.want != 0 && stderr.Len() == 0 {
				t.Error("failure produced nothing on stderr")
			}
		})
	}
	for _, name := range []string{"zero.hsio", "nan.hsio", "logs", "long.hsio"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s written despite invalid inputs (%v)", name, err)
		}
	}
}
