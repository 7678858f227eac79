package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Every committed scenario round-trips through the codec exactly:
// decode(encode(s)) == s and the re-encoding is byte-identical.
func TestJSONRoundTripLibrary(t *testing.T) {
	for _, s := range library(t) {
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		first := buf.String()
		got, err := ReadScenario(strings.NewReader(first))
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round-trip changed the scenario:\n%+v\n%+v", s.Name, got, s)
		}
		buf.Reset()
		if err := got.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if buf.String() != first {
			t.Fatalf("%s: re-encoding not byte-identical", s.Name)
		}
	}
}

// The decoder is strict: wrong schema, unknown fields, unknown enum
// names, structurally invalid scenarios and data after the document are
// all errors.
func TestReadScenarioRejects(t *testing.T) {
	valid := func() string {
		var buf bytes.Buffer
		if err := mustByName(t, "noisy-neighbor").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	cases := []struct {
		name, doc, want string
	}{
		{"empty", "", "decoding"},
		{"not json", "{", "decoding"},
		{"wrong schema", strings.Replace(valid, "hypertrio-scenario/1", "hypertrio-scenario/9", 1), "schema"},
		{"unknown field", strings.Replace(valid, `"seed"`, `"sneed"`, 1), "decoding"},
		{"bad benchmark", strings.Replace(valid, `"benchmark": "iperf3"`, `"benchmark": "doom"`, 1), "doom"},
		{"bad role", strings.Replace(valid, `"role": "noisy-neighbor"`, `"role": "saint"`, 1), "role"},
		{"bad interleave", strings.Replace(valid, `"interleave": "RR1"`, `"interleave": "ZZ1"`, 1), "interleav"},
		{"fractional interleave burst", strings.Replace(valid, `"interleave": "RR1"`, `"interleave": "RR1.5"`, 1), "RR1.5"},
		{"bad envelope kind", strings.Replace(valid, `"kind": "flat"`, `"kind": "cubic"`, 1), "envelope"},
		{"invalid scenario", strings.Replace(valid, `"tenants": 12`, `"tenants": -3`, 1), "tenants"},
		{"trailing junk", valid + " trailing junk", "after the JSON document"},
		{"two documents", valid + valid, "after the JSON document"},
		{"stray brace", valid + "}", "after the JSON document"},
	}
	for _, tc := range cases {
		_, err := ReadScenario(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Overlay kinds decode too (the noisy-neighbor doc has none).
	var buf bytes.Buffer
	if err := mustByName(t, "storm").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"kind": "shootdown_storm"`, `"kind": "locust_storm"`, 1)
	if _, err := ReadScenario(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "overlay") {
		t.Errorf("bad overlay kind: %v", err)
	}
}
