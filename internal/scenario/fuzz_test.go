package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzScenarioCodec hardens the scenario JSON codec against hostile
// input and pins its round-trip identity: any document the decoder
// accepts must re-encode canonically — decode(encode(decode(doc)))
// equals decode(doc) and the second encoding is byte-identical to the
// first. The committed corpus under testdata/fuzz seeds the search
// with every library scenario plus hostile shapes; `make fuzz-smoke`
// runs the target briefly on every CI pass.
func FuzzScenarioCodec(f *testing.F) {
	for _, s := range library(f) {
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"schema":"hypertrio-scenario/1"}`))
	f.Add([]byte(`{"schema":"hypertrio-scenario/1","name":"�","seed":-1,` +
		`"interleave":"RAND1","scale":1e-300,"classes":[],"phases":[]}`))
	f.Add([]byte(`{"scale":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadScenario(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics and hangs count
		}
		var first bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("accepted scenario failed to encode: %v", err)
		}
		s2, err := ReadScenario(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed the scenario:\n%+v\n%+v", s, s2)
		}
		var second bytes.Buffer
		if err := s2.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding not byte-identical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
