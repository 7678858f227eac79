package collector

import (
	"bytes"
	"math"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

func newCollector(t *testing.T, scale float64) *Collector {
	t.Helper()
	c, err := New(workload.ProfileFor(workload.Iperf3), 42, scale)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRuns(t *testing.T) {
	cases := map[int]int{1: 1, 24: 1, 25: 2, 48: 2, 49: 3, 1024: 43}
	for n, want := range cases {
		if got := Runs(n); got != want {
			t.Errorf("Runs(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCollectRunLimits(t *testing.T) {
	c := newCollector(t, 0.001)
	if _, err := c.CollectRun(0, 0); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := c.CollectRun(0, 25); err == nil {
		t.Error("25 slots accepted")
	}
	logs, err := c.CollectRun(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 24 {
		t.Fatalf("got %d logs", len(logs))
	}
}

func TestCollectGlobalSIDs(t *testing.T) {
	c := newCollector(t, 0.001)
	logs, err := c.Collect(50) // 3 runs: 24 + 24 + 2
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 50 {
		t.Fatalf("got %d logs, want 50", len(logs))
	}
	for i, l := range logs {
		if int(l.SID) != i+1 {
			t.Fatalf("log %d has SID %d", i, l.SID)
		}
		wantRun := i / MaxSlotsPerRun
		wantSlot := i%MaxSlotsPerRun + 1
		if l.Run != wantRun || l.Slot != wantSlot {
			t.Fatalf("log %d: run/slot = %d/%d, want %d/%d", i, l.Run, l.Slot, wantRun, wantSlot)
		}
		if len(l.Packets) == 0 || l.Budget == 0 {
			t.Fatalf("log %d empty", i)
		}
	}
}

func TestSlotAddressingSurvivesRemap(t *testing.T) {
	// Tenants in the same slot of different runs must share ring-page
	// gIOVAs (the cross-run address reuse the paper observes), and the
	// global SID must map to the same ring slot (24 ≡ 0 mod RingSlots).
	c := newCollector(t, 0.001)
	logs, err := c.Collect(30)
	if err != nil {
		t.Fatal(err)
	}
	slotOne := []TenantLog{logs[0], logs[24]} // slot 1 of runs 0 and 1
	ringA := slotOne[0].Packets[0].Ring &^ uint64(mem.PageSize-1)
	ringB := slotOne[1].Packets[0].Ring &^ uint64(mem.PageSize-1)
	if ringA != ringB {
		t.Fatalf("same slot, different ring pages: %#x vs %#x", ringA, ringB)
	}
	for _, l := range logs {
		want := workload.RingPageFor(l.SID)
		got := l.Packets[0].Ring &^ uint64(mem.PageSize-1)
		if got != want {
			t.Fatalf("SID %d ring page %#x, want %#x", l.SID, got, want)
		}
	}
}

func TestMergeMatchesDirectConstruction(t *testing.T) {
	// The collector pipeline (runs -> logs -> merge) must produce the
	// same hyper-trace as trace.Construct for every interleaving.
	for _, iv := range []trace.Interleave{trace.RR1, trace.RR4, trace.RAND1} {
		profile := workload.ProfileFor(workload.Iperf3)
		c := newCollector(t, 0.002)
		logs, err := c.Collect(30)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(logs, workload.Iperf3, profile, iv, 42, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := trace.Construct(trace.Config{
			Benchmark: workload.Iperf3, Tenants: 30, Interleave: iv, Seed: 42, Scale: 0.002,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Packets) != len(direct.Packets) {
			t.Fatalf("%v: merged %d packets, direct %d", iv, len(merged.Packets), len(direct.Packets))
		}
		for i := range merged.Packets {
			if merged.Packets[i] != direct.Packets[i] {
				t.Fatalf("%v: packet %d differs: %+v vs %+v", iv, i, merged.Packets[i], direct.Packets[i])
			}
		}
		for i := range merged.Stats {
			if merged.Stats[i] != direct.Stats[i] {
				t.Fatalf("%v: stat %d differs", iv, i)
			}
		}
	}
}

func TestMergeValidation(t *testing.T) {
	profile := workload.ProfileFor(workload.Iperf3)
	if _, err := Merge(nil, workload.Iperf3, profile, trace.RR1, 1, 0.01); err == nil {
		t.Error("empty logs accepted")
	}
	c := newCollector(t, 0.001)
	logs, err := c.Collect(4)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]TenantLog{}, logs...)
	bad[2].SID = 9 // gap
	if _, err := Merge(bad, workload.Iperf3, profile, trace.RR1, 1, 0.001); err == nil {
		t.Error("non-contiguous SIDs accepted")
	}
	if _, err := Merge(logs, workload.Iperf3, profile, trace.Interleave{Kind: trace.RoundRobin}, 1, 0.001); err == nil {
		t.Error("zero burst accepted")
	}
	if _, err := Merge(logs, workload.Iperf3, profile, trace.Interleave{Kind: 2, Burst: 1}, 1, 0.001); err == nil {
		t.Error("unknown interleave kind accepted")
	}
	if _, err := Merge(logs, 9, profile, trace.RR1, 1, 0.001); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	c := newCollector(t, 0.002)
	logs, err := c.CollectRun(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLogs(&buf, 3, logs); err != nil {
		t.Fatal(err)
	}
	run, got, err := ReadLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run != 3 {
		t.Fatalf("run = %d", run)
	}
	if len(got) != len(logs) {
		t.Fatalf("got %d logs", len(got))
	}
	for i := range got {
		if got[i].Run != logs[i].Run || got[i].Slot != logs[i].Slot ||
			got[i].SID != logs[i].SID || got[i].Budget != logs[i].Budget {
			t.Fatalf("log %d header differs: %+v vs %+v", i, got[i], logs[i])
		}
		if len(got[i].Packets) != len(logs[i].Packets) {
			t.Fatalf("log %d packet count differs", i)
		}
		for j := range got[i].Packets {
			if got[i].Packets[j] != logs[i].Packets[j] {
				t.Fatalf("log %d packet %d differs", i, j)
			}
		}
	}
}

func TestLogFileRejectsGarbage(t *testing.T) {
	if _, _, err := ReadLogs(bytes.NewReader([]byte("NOPE...."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	c := newCollector(t, 0.001)
	logs, _ := c.CollectRun(0, 2)
	var buf bytes.Buffer
	if err := WriteLogs(&buf, 0, logs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLogs(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("truncated log accepted")
	}
	if _, _, err := ReadLogs(bytes.NewReader(hugeCountLog)); err == nil {
		t.Fatal("log declaring 2^31 absent packets accepted")
	}
	// Writing a log under the wrong run id is rejected.
	if err := WriteLogs(&bytes.Buffer{}, 7, logs); err == nil {
		t.Fatal("wrong-run write accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(workload.ProfileFor(workload.Iperf3), 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := New(workload.ProfileFor(workload.Iperf3), 1, math.NaN()); err == nil {
		t.Error("NaN scale accepted")
	}
	bad := workload.ProfileFor(workload.Iperf3)
	bad.DataPages = 0
	if _, err := New(bad, 1, 0.5); err == nil {
		t.Error("invalid profile accepted")
	}
}
