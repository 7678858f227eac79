package experiments

import (
	"runtime"
	"testing"

	"hypertrio/internal/core"
	"hypertrio/internal/trace"
)

// TestExtMegaTenantSignal checks the experiment produces the expected
// signal at quick scale: every cell completes packets, and the
// partitioned-plus-prefetching design sustains at least the Base
// bandwidth at every tenant count (at thousands of tenants the DevTLB is
// hopelessly over-subscribed, so the PTB's overlap and prefetching are
// what keep the link busy).
func TestExtMegaTenantSignal(t *testing.T) {
	tbl, err := ExtMegaTenant(Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows
	if len(rows) != 2 {
		t.Fatalf("quick sweep should have 2 tenant counts, got %d", len(rows))
	}
	for _, r := range rows {
		if r[1] == "0.00" || r[2] == "0.00" {
			t.Errorf("tenants=%s: zero bandwidth: base=%s ht=%s", r[0], r[1], r[2])
		}
	}
}

// megaTenantHeapBudget is the committed live-heap ceiling for a
// 10⁵-tenant streaming HyperTRIO run: measured ~64 MB (≈640 B/tenant —
// generators, context table, tenant-latency cells), committed at 2x
// headroom. A materialized run of the same cell at paper-scale trace
// lengths would hold hundreds of millions of packets instead; this guard
// is what keeps the O(tenants) streaming contract from regressing
// silently.
const megaTenantHeapBudget = 128 << 20

// TestMegaTenantHeapBudget runs the 10⁵-tenant streaming cell and holds
// the post-run live heap under the committed budget. It logs the live
// bytes per tenant the run added over the heap it started from, the
// measured streaming cost per tenant.
func TestMegaTenantHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-tenant run takes ~3s; skipped in -short mode")
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	tc := megaTenantTrace(100_000, 300_000, Options{Seed: 42})
	src, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemSource(core.HyperTRIOConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("streaming run completed no packets")
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	var perTenant float64
	if live > before.HeapAlloc {
		perTenant = float64(live-before.HeapAlloc) / float64(tc.Tenants)
	}
	t.Logf("10^5-tenant streaming run: %d packets, live heap %.1f MB (budget %.0f MB), %.0f live B/tenant",
		res.Packets, float64(live)/(1<<20), float64(megaTenantHeapBudget)/(1<<20), perTenant)
	if live > megaTenantHeapBudget {
		t.Errorf("live heap %.1f MB exceeds the committed %.0f MB budget: streaming memory is no longer O(tenants)",
			float64(live)/(1<<20), float64(megaTenantHeapBudget)/(1<<20))
	}
	runtime.KeepAlive(sys)
	runtime.KeepAlive(src)
}
