package collector

import (
	"bytes"
	"testing"
)

// hugeCountLog is a one-log HLOG run whose only log declares 2^31
// packets and carries none: a decoder that trusts the count allocates
// tens of gigabytes before its first read fails.
var hugeCountLog = []byte("HLOG\x01\x00\x01\x01\x01\x00\x80\x80\x80\x80\x08")

// FuzzReadLogs throws arbitrary bytes at the HLOG decoder. It must never
// panic or allocate unboundedly, and any run it accepts must re-encode
// to a fixpoint.
func FuzzReadLogs(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteLogs(&buf, 0, goldenLogs(f)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hugeCountLog)
	f.Fuzz(func(t *testing.T, data []byte) {
		run, logs, err := ReadLogs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteLogs(&out, run, logs); err != nil {
			t.Fatalf("re-encoding an accepted run failed: %v", err)
		}
		run2, again, err := ReadLogs(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded run failed: %v", err)
		}
		var out2 bytes.Buffer
		if err := WriteLogs(&out2, run2, again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("accepted run does not reach an encoding fixpoint")
		}
	})
}
