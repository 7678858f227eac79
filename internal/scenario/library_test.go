package scenario

import (
	"bytes"
	"io/fs"
	"strings"
	"testing"

	"hypertrio/scenarios"
)

// mustByName is ByName for tests: a committed scenario that is missing
// or fails to decode fails the test.
func mustByName(t testing.TB, name string) *Scenario {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// committedFiles returns the embedded library's file names in lexical
// order.
func committedFiles(t testing.TB) []string {
	t.Helper()
	names, err := fs.Glob(scenarios.FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// library decodes every committed scenario, in file-name order.
func library(t testing.TB) []*Scenario {
	t.Helper()
	var lib []*Scenario
	for _, name := range committedFiles(t) {
		lib = append(lib, mustByName(t, strings.TrimSuffix(name, ".json")))
	}
	return lib
}

// Every committed file is named after the scenario it holds and is
// byte-identical to that scenario's canonical encoding, so ByName finds
// each one and reviews diff semantics, not formatting.
func TestCommittedScenariosCanonical(t *testing.T) {
	for _, name := range committedFiles(t) {
		raw, err := fs.ReadFile(scenarios.FS, name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ReadScenario(bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := s.Name + ".json"; name != want {
			t.Errorf("%s holds scenario %q: the file must be named %s", name, s.Name, want)
		}
		var canon bytes.Buffer
		if err := s.WriteJSON(&canon); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, canon.Bytes()) {
			t.Errorf("%s is not canonically encoded (run `go run ./cmd/scenariolint -w scenarios/%s`)", name, name)
		}
	}
}
