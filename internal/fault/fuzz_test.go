package fault

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFaultPlanCodec hardens the fault-plan JSON codec against hostile
// input and pins its round trip: any document ReadPlan accepts must
// encode with WriteJSON and decode back to the identical plan. Rejected
// input only has to fail cleanly — panics and hangs are the bugs. The
// committed corpus under testdata/fuzz seeds the search with a full
// plan plus hostile shapes (a SID far beyond any trace, huge times, a
// negative backoff); `make fuzz-smoke` runs the target briefly.
func FuzzFaultPlanCodec(f *testing.F) {
	var buf bytes.Buffer
	if err := fullPlan().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"hypertrio-faultplan/1","events":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics and hangs count
		}
		var enc bytes.Buffer
		if err := p.WriteJSON(&enc); err != nil {
			t.Fatalf("accepted plan failed to encode: %v", err)
		}
		p2, err := ReadPlan(&enc)
		if err != nil {
			t.Fatalf("encoded plan failed to decode: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, p2)
		}
	})
}
