package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertrio/internal/scenario"
)

// byName is scenario.ByName for tests.
func byName(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeScenario writes one scenario in canonical form and returns its
// path.
func writeScenario(t *testing.T, dir string, s *scenario.Scenario) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, s.Name+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintValidFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenarios: %v", err)
	}
	var stdout, stderr strings.Builder
	if got := cliMain(paths, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"noisy-neighbor ok", "storm ok", "scripted events",
		"time-varying envelope", "full load throughout", "adversarial classes"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// -check accepts canonical files and rejects semantically identical but
// reformatted ones; -w repairs them back to canonical and a second
// -check passes.
func TestLintCheckAndWrite(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, byName(t, "noisy-neighbor"))
	canon, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if got := cliMain([]string{"-check", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("canonical file failed -check: %s", stderr.String())
	}

	// Reformat: strip the trailing newline — still valid JSON.
	if err := os.WriteFile(path, bytes.TrimRight(canon, "\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if got := cliMain([]string{"-check", path}, &stdout, &stderr); got != 1 {
		t.Fatalf("-check passed a non-canonical file (exit %d)", got)
	}
	if !strings.Contains(stderr.String(), "canonical") {
		t.Errorf("stderr does not explain the failure: %s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if got := cliMain([]string{"-w", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("-w failed: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "rewrote") {
		t.Errorf("-w did not report the rewrite: %s", stdout.String())
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, canon) {
		t.Error("-w did not restore the canonical encoding")
	}
}

func TestLintErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hypertrio-scenario/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	invalid := filepath.Join(dir, "invalid.json")
	doc := strings.Replace(func() string {
		var b bytes.Buffer
		if err := byName(t, "noisy-neighbor").WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}(), `"tenants": 12`, `"tenants": 0`, 1)
	if err := os.WriteFile(invalid, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no files", nil, 2},
		{"both modes", []string{"-w", "-check", bad}, 2},
		{"emit with files", []string{"-emit", dir, bad}, 2}, // no such flag
		{"missing file", []string{filepath.Join(dir, "nope.json")}, 1},
		{"wrong schema", []string{bad}, 1},
		{"invalid scenario", []string{invalid}, 1},
		{"help", []string{"-h"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := cliMain(c.args, &stdout, &stderr); got != c.want {
				t.Fatalf("cliMain(%v) = %d, want %d (stderr: %s)", c.args, got, c.want, stderr.String())
			}
			if c.want != 0 && stderr.Len() == 0 {
				t.Error("failure produced nothing on stderr")
			}
		})
	}
}
