package trace

import (
	"bytes"
	"testing"

	"hypertrio/internal/workload"
)

// FuzzReadBinary throws arbitrary bytes at the binary-trace decoder. The
// decoder must never panic or allocate unboundedly (a hostile header can
// declare 2^31 records); anything it accepts must have every packet SID
// in 1..Tenants and survive a re-encode/re-decode round trip unchanged.
func FuzzReadBinary(f *testing.F) {
	tr, err := Construct(Config{
		Benchmark: workload.Iperf3, Tenants: 2, Interleave: RR1, Seed: 7, Scale: 0.001,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:5])            // truncated mid-header
	f.Add([]byte("HSIO"))       // magic only
	f.Add([]byte("XSIO\x01"))   // bad magic
	f.Add([]byte{})
	// Declared record counts far beyond the bytes that follow.
	huge := append(append([]byte{}, valid[:20]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x07)
	f.Add(huge)
	for _, data := range malformedTraces(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as we got here without panicking
		}
		for i, p := range got.Packets {
			if p.SID == 0 || int(p.SID) > got.Tenants {
				t.Fatalf("accepted packet %d with SID %d outside 1..%d", i, p.SID, got.Tenants)
			}
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("re-encoding an accepted trace failed: %v", err)
		}
		again, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded trace failed: %v", err)
		}
		// Compare via a second encode: byte equality sidesteps NaN scales,
		// which a crafted header can smuggle in and DeepEqual rejects.
		var out2 bytes.Buffer
		if err := Write(&out2, again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("accepted trace does not reach an encoding fixpoint:\n got   %+v\n again %+v", got, again)
		}
	})
}
