package collector

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hypertrio/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the byte goldens under testdata/")

// goldenLogs are the logs behind testdata/iperf3-4t.hlog: one run of
// four small-data iperf3 tenants, whose short buffer runs put unmap
// records (and their shift byte) into the file.
func goldenLogs(t testing.TB) []TenantLog {
	t.Helper()
	c, err := New(workload.SmallDataVariant(workload.ProfileFor(workload.Iperf3)), 42, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := c.CollectRun(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// TestHLOGGolden pins the HLOG encoding byte for byte: WriteLogs of the
// golden run reproduces the committed file, and ReadLogs of the file
// yields the collected logs. Run with -update to rewrite the file on a
// deliberate format change.
func TestHLOGGolden(t *testing.T) {
	logs := goldenLogs(t)
	unmaps := 0
	for _, l := range logs {
		for _, p := range l.Packets {
			if p.UnmapIOVA != 0 {
				unmaps++
			}
		}
	}
	if unmaps == 0 {
		t.Fatal("golden logs have no unmap packet; they would not pin the shift byte")
	}
	var buf bytes.Buffer
	if err := WriteLogs(&buf, 0, logs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "iperf3-4t.hlog")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteLogs output (%d bytes) differs from %s (%d bytes)", buf.Len(), path, len(want))
	}
	run, got, err := ReadLogs(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if run != 0 || len(got) != len(logs) {
		t.Fatalf("decoded run %d with %d logs, want run 0 with %d", run, len(got), len(logs))
	}
	for i := range got {
		g, w := got[i], logs[i]
		if g.Run != w.Run || g.Slot != w.Slot || g.SID != w.SID || g.Budget != w.Budget || len(g.Packets) != len(w.Packets) {
			t.Fatalf("log %d header differs: %+v vs %+v", i, g, w)
		}
		for j := range g.Packets {
			if g.Packets[j] != w.Packets[j] {
				t.Fatalf("log %d packet %d: %+v vs %+v", i, j, g.Packets[j], w.Packets[j])
			}
		}
	}
}
