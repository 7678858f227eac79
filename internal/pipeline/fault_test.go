package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/workload"
)

// fakeHook is a scripted FaultHook: it faults one walk attempt per queued
// backoff and records everything the chain reports.
type fakeHook struct {
	backoffs  []sim.Duration // consumed per faulted attempt
	attempts  []int
	walks     []tlb.Key
	probeHits []tlb.Key
}

func (h *fakeHook) WalkAttempt(_ sim.Time, _ mem.SID, attempt int) (sim.Duration, bool) {
	h.attempts = append(h.attempts, attempt)
	if len(h.backoffs) == 0 {
		return 0, false
	}
	d := h.backoffs[0]
	h.backoffs = h.backoffs[1:]
	return d, true
}

func (h *fakeHook) OnWalk(_ sim.Time, sid mem.SID, iova uint64, shift uint8) {
	h.walks = append(h.walks, iommu.PageKey(sid, iova, shift))
}

func (h *fakeHook) OnProbeHit(_ sim.Time, sid mem.SID, iova uint64, shift uint8) {
	h.probeHits = append(h.probeHits, iommu.PageKey(sid, iova, shift))
}

// doneRecorder is a Completer logging completion times and ctx words.
type doneRecorder struct {
	times []sim.Time
	ctxs  []uint64
}

func (d *doneRecorder) Complete(_ *sim.Engine, at sim.Time, ctx uint64) {
	d.times = append(d.times, at)
	d.ctxs = append(d.ctxs, ctx)
}

// tenantEnv is a testEnv with one real mapped tenant, so the chipset
// stage can actually translate.
func tenantEnv(t *testing.T) (Env, *workload.AddressSpace) {
	t.Helper()
	env := testEnv()
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	env.Tenants = mem.NewTenantTables(1)
	as, err := workload.BuildAddressSpaceLevels(workload.ProfileFor(workload.Iperf3), 1, host, env.Tenants, mem.Levels)
	if err != nil {
		t.Fatal(err)
	}
	return env, as
}

// TestTenantInvalidationPropagation checks that tenant-scoped and
// broadcast invalidations reach every composed stage holding per-tenant
// state, across all enabled-stage combinations, and drop only what they
// should.
func TestTenantInvalidationPropagation(t *testing.T) {
	const (
		victim = mem.SID(3)
		other  = mem.SID(4)
		iova   = uint64(0x7000)
		shift  = uint8(12)
	)
	combos := []struct {
		name             string
		devtlb, prefetch bool
	}{
		{"chipset only", false, false},
		{"devtlb", true, false},
		{"prefetch", false, true},
		{"devtlb+prefetch", true, true},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			seeded := 0 // per-SID entries installed on the device side
			if combo.devtlb {
				seeded++
			}
			if combo.prefetch {
				seeded++
			}
			c := New(testEnv(), testConfig(4, combo.devtlb, combo.prefetch))
			for _, st := range c.Stages() {
				switch v := st.(type) {
				case *CacheStage:
					for _, sid := range []mem.SID{victim, other} {
						v.Fill(Request{SID: sid, IOVA: iova, Shift: shift}, 0xBEEF000)
					}
				case *PrefetchBufferStage:
					for _, sid := range []mem.SID{victim, other} {
						key := iommu.PageKey(sid, iova, shift)
						v.Unit().Complete(sid, []tlb.Entry{{Key: key, Value: 0xBEEF000, PageShift: shift}}, 0)
					}
				}
			}
			e := sim.NewEngine()
			lookup := func(sid mem.SID) bool {
				return c.Lookup(e, Request{SID: sid, IOVA: iova, Shift: shift})
			}

			if got := c.InvalidateSID(victim); got != seeded {
				t.Fatalf("InvalidateSID dropped %d entries, want %d", got, seeded)
			}
			if lookup(victim) {
				t.Fatal("victim SID still served after tenant invalidation")
			}
			if seeded > 0 && !lookup(other) {
				t.Fatal("tenant invalidation dropped another SID's entries")
			}

			if got := c.FlushAll(); got != seeded {
				t.Fatalf("FlushAll dropped %d entries, want %d", got, seeded)
			}
			if lookup(other) {
				t.Fatal("page still served after broadcast flush")
			}
		})
	}
}

// TestProbeHitNotifiesFaultHook pins the hook's view of the device-side
// probe path: exactly the hits, never the misses.
func TestProbeHitNotifiesFaultHook(t *testing.T) {
	env := testEnv()
	hook := &fakeHook{}
	env.Faults = hook
	c := New(env, testConfig(4, true, false))
	rq := Request{SID: 2, IOVA: 0x9000, Shift: 12}
	e := sim.NewEngine()
	if c.Lookup(e, rq) {
		t.Fatal("empty chain hit")
	}
	if len(hook.probeHits) != 0 {
		t.Fatal("hook notified on a miss")
	}
	for _, st := range c.Stages() {
		if v, ok := st.(*CacheStage); ok {
			v.Fill(rq, 0xF000)
		}
	}
	if !c.Lookup(e, rq) {
		t.Fatal("seeded page missed")
	}
	if len(hook.probeHits) != 1 || hook.probeHits[0] != rq.Key() {
		t.Fatalf("hook saw %v, want exactly [%v]", hook.probeHits, rq.Key())
	}
}

// resolveOnce drives one demand miss through a ptb+chipset chain with the
// given hook and returns the completion time and trace buffer.
func resolveOnce(t *testing.T, hook *fakeHook) (sim.Time, string) {
	t.Helper()
	env, as := tenantEnv(t)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	env.Tracer = tr
	env.Faults = hook
	c := New(env, Config{
		PTBEntries: 4,
		IOMMU: iommu.Config{
			ContextCache: iommu.DefaultContextCache(),
			L2PWC:        tlb.Config{Name: "l2pwc", Sets: 4, Ways: 4, Policy: tlb.LRU},
			L3PWC:        tlb.Config{Name: "l3pwc", Sets: 4, Ways: 4, Policy: tlb.LRU},
		},
		Walkers: 1,
	})
	e := sim.NewEngine()
	done := &doneRecorder{}
	c.Resolve(e, Request{SID: as.SID, IOVA: as.Ring, Shift: 12}, done, 77)
	e.Run()
	if len(done.times) != 1 || done.ctxs[0] != 77 {
		t.Fatalf("completions: times=%v ctxs=%v, want one with ctx 77", done.times, done.ctxs)
	}
	if c.WalkersBusy() != 0 || c.WalkQueue() != 0 {
		t.Fatalf("walker leaked: busy=%d queued=%d", c.WalkersBusy(), c.WalkQueue())
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return done.times[0], buf.String()
}

// TestChipsetWalkerFaultRetry pins the retry path: a faulted walk holds
// its walker, backs off exactly as told, re-attempts with an incremented
// attempt number, and completes late by precisely the backoff sum.
func TestChipsetWalkerFaultRetry(t *testing.T) {
	clean := &fakeHook{}
	t0, _ := resolveOnce(t, clean)
	if got := clean.attempts; len(got) != 1 || got[0] != 0 {
		t.Fatalf("clean run attempts = %v, want [0]", got)
	}
	if len(clean.walks) != 1 {
		t.Fatalf("clean run walks = %v, want one", clean.walks)
	}

	faulty := &fakeHook{backoffs: []sim.Duration{100 * sim.Nanosecond, 250 * sim.Nanosecond}}
	t1, trace := resolveOnce(t, faulty)
	if want := []int{0, 1, 2}; len(faulty.attempts) != 3 ||
		faulty.attempts[0] != 0 || faulty.attempts[1] != 1 || faulty.attempts[2] != 2 {
		t.Fatalf("faulted run attempts = %v, want %v", faulty.attempts, want)
	}
	if len(faulty.walks) != 1 {
		t.Fatalf("faulted run executed %d walks, want 1", len(faulty.walks))
	}
	if want := t0.Add(350 * sim.Nanosecond); t1 != want {
		t.Fatalf("faulted completion at %d, want %d (clean %d + 350ns backoff)", t1, want, t0)
	}
	if n := strings.Count(trace, `"ev":"fault_retry"`); n != 2 {
		t.Fatalf("trace has %d fault_retry events, want 2:\n%s", n, trace)
	}
}

// TestChainAdmission checks the chain's admission passes the PTB's
// decisions through and the PTB counts them.
func TestChainAdmission(t *testing.T) {
	c := New(testEnv(), testConfig(2, false, false))
	if !c.Admit() || !c.Admit() {
		t.Fatal("admission refused with free slots")
	}
	if c.Admit() {
		t.Fatal("admission granted past capacity")
	}
	if c.PTBInUse() != 2 {
		t.Fatalf("PTB in use = %d, want 2", c.PTBInUse())
	}
	c.ReleaseSlot()
	c.ReleaseSlot()
	want := device.PTBStats{Allocs: 2, Rejected: 1, Peak: 2}
	if got := c.PTBStats(); got != want || c.PTBInUse() != 0 {
		t.Fatalf("stats %+v in use %d, want %+v in use 0", got, c.PTBInUse(), want)
	}
}

// TestChainRejectN checks the bulk rejection the drop-retry
// fast-forward uses: against a full buffer it counts like n failed
// Admits (device.TestPTBRejectN pins the panic with a slot free).
func TestChainRejectN(t *testing.T) {
	c := New(testEnv(), testConfig(2, false, false))
	c.Admit()
	c.Admit()
	c.RejectN(5)
	if got := c.PTBStats(); got.Rejected != 5 || got.Allocs != 2 {
		t.Fatalf("PTB stats %+v, want 2 allocs and 5 rejections", got)
	}
}

// TestChainWithoutAdmitter pins the unbounded fallback: a chain with no
// PTB admits everything, and its release and bulk rejection are no-ops.
func TestChainWithoutAdmitter(t *testing.T) {
	c := New(testEnv(), testConfig(0, false, false))
	for i := 0; i < 5; i++ {
		if !c.Admit() {
			t.Fatal("chain without a PTB refused admission")
		}
	}
	c.RejectN(3)
	for i := 0; i < 5; i++ {
		c.ReleaseSlot()
	}
	if got := c.PTBStats(); got != (device.PTBStats{}) || c.PTBInUse() != 0 {
		t.Fatalf("chain without a PTB reports stats %+v, in use %d", got, c.PTBInUse())
	}
}

// TestChainReleaseWithoutAdmission pins that a slot release the chain
// never admitted is refused: releasing into an empty PTB panics rather
// than letting the in-use count go negative.
func TestChainReleaseWithoutAdmission(t *testing.T) {
	c := New(testEnv(), testConfig(2, false, false))
	defer func() {
		if recover() == nil {
			t.Fatal("release without admission did not panic")
		}
	}()
	c.ReleaseSlot()
}
