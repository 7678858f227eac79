package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite the datapath goldens under testdata/")

// TestDatapathGoldens pins the datapath's outward face byte for byte —
// the -describe text and the sorted metric names the registry publishes
// after a short run — for the two Table IV designs and the native path.
// Regenerate deliberately
// with
//
//	go test ./internal/core -run TestDatapathGoldens -update
func TestDatapathGoldens(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"hypertrio", HyperTRIOConfig()},
		{"native", Config{Params: DefaultParams(), TranslationOff: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			describe, err := DescribePipeline(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSystem(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			names := strings.Join(s.Registry().Names(), "\n") + "\n"
			checkGolden(t, filepath.Join("testdata", tc.name+".describe.golden"), describe)
			checkGolden(t, filepath.Join("testdata", tc.name+".registry.golden"), names)
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
