package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/device"
	"hypertrio/internal/mem"
	"hypertrio/internal/obs"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

func makeTrace(t *testing.T, kind workload.Kind, tenants int, iv trace.Interleave, scale float64) *trace.Trace {
	t.Helper()
	tr, err := trace.Construct(trace.Config{
		Benchmark: kind, Tenants: tenants, Interleave: iv, Seed: 42, Scale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, cfg Config, tr *trace.Trace) Result {
	t.Helper()
	s, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.PCIeOneWay != 450*sim.Nanosecond {
		t.Errorf("PCIe one-way = %v, want 450ns (Table II)", p.PCIeOneWay)
	}
	if p.DRAMLatency != 50*sim.Nanosecond {
		t.Errorf("DRAM latency = %v, want 50ns (Table II)", p.DRAMLatency)
	}
	if p.TLBHit != 2*sim.Nanosecond {
		t.Errorf("TLB hit = %v, want 2ns (Table II)", p.TLBHit)
	}
	if p.PacketBytes != 1542 {
		t.Errorf("packet = %dB, want 1542B (Table II)", p.PacketBytes)
	}
	if p.LinkGbps != 200 {
		t.Errorf("link = %vGb/s, want 200 (Table II)", p.LinkGbps)
	}
	// 1542B at 200Gb/s: 61.68ns inter-arrival.
	if p.Interarrival() != sim.FromNanos(61.68) {
		t.Errorf("interarrival = %v, want 61.68ns", p.Interarrival())
	}
}

func TestTable4Configs(t *testing.T) {
	b := BaseConfig()
	h := HyperTRIOConfig()
	if b.DevTLB.Entries() != 64 || b.DevTLB.Ways != 8 || b.DevTLB.Policy != tlb.LFU {
		t.Errorf("Base DevTLB %+v does not match Table IV", b.DevTLB)
	}
	if b.DevTLB.Index != tlb.ByAddress || h.DevTLB.Index != tlb.BySID {
		t.Error("partitioning: Base must index by address, HyperTRIO by SID")
	}
	if h.DevTLB.Sets != 8 {
		t.Errorf("HyperTRIO DevTLB partitions = %d, want 8", h.DevTLB.Sets)
	}
	if b.PTBEntries != 1 || h.PTBEntries != 32 {
		t.Errorf("PTB entries base=%d hyper=%d, want 1/32", b.PTBEntries, h.PTBEntries)
	}
	if b.Prefetch != nil {
		t.Error("Base must not prefetch")
	}
	if h.Prefetch == nil || h.Prefetch.BufferEntries != 8 || h.Prefetch.HistoryLen != 48 {
		t.Errorf("HyperTRIO prefetch %+v does not match Table IV", h.Prefetch)
	}
	if h.IOMMU.L2PWC.Entries() != 512 || h.IOMMU.L2PWC.Sets != 32 {
		t.Errorf("L2TLB %+v does not match Table IV", h.IOMMU.L2PWC)
	}
	if h.IOMMU.L3PWC.Entries() != 1024 || h.IOMMU.L3PWC.Sets != 64 {
		t.Errorf("L3TLB %+v does not match Table IV", h.IOMMU.L3PWC)
	}
}

func TestConfigValidation(t *testing.T) {
	good := BaseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PTBEntries = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PTB accepted")
	}
	for _, c := range []struct {
		name string
		edit func(*Params)
		want string // a substring of the error
	}{
		{"zero link rate", func(p *Params) { p.LinkGbps = 0 }, "link rate"},
		{"NaN link rate", func(p *Params) { p.LinkGbps = math.NaN() }, "link rate"},
		{"infinite link rate", func(p *Params) { p.LinkGbps = math.Inf(1) }, "link rate"},
		{"arrival above link", func(p *Params) { p.ArrivalGbps = 300 }, "arrival rate"},
		{"negative arrival rate", func(p *Params) { p.ArrivalGbps = -1 }, "arrival rate"},
		{"NaN arrival rate", func(p *Params) { p.ArrivalGbps = math.NaN() }, "arrival rate"},
		// A gap past sim.Duration's range must not reach the float-to-int
		// conversion, whose overflow Go leaves implementation-defined.
		{"link rate too low for the clock", func(p *Params) { p.LinkGbps = 1e-300 }, "link rate"},
		{"arrival rate too low for the clock", func(p *Params) { p.ArrivalGbps = 1e-300 }, "arrival rate"},
		{"gap just over 1 s", func(p *Params) { p.LinkGbps = 12336e-9 * 0.999 }, "at most 1 s"},
		// Above ~2.5e7 Gb/s a 1542 B packet's gap rounds to 0 ps, and a
		// dropped packet would retry at the same instant forever.
		{"zero inter-arrival gap", func(p *Params) { p.LinkGbps = 1e9 }, "at least 1 ps"},
	} {
		bad := good
		c.edit(&bad.Params)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// A gap of exactly 1 s is the slowest rate accepted.
	slow := good
	slow.Params.LinkGbps = 12336e-9
	if err := slow.Validate(); err != nil {
		t.Errorf("1 s gap: Validate = %v", err)
	}
}

// TestConfigRejectsBadCacheGeometry pins geometry validation at config
// level: a cache the model cannot build is an error from Validate (and
// so from NewSystem and DescribePipeline), never a panic inside the
// cache constructor. Disabled caches (Sets == 0) are not checked. The
// Prefetch Unit's settings are checked the same way; a zero setting
// takes its default.
func TestConfigRejectsBadCacheGeometry(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"devtlb sets not a power of two", func(c *Config) { c.DevTLB.Sets = 3 }, false},
		{"devtlb zero ways", func(c *Config) { c.DevTLB.Ways = 0 }, false},
		{"devtlb disabled", func(c *Config) { c.DevTLB.Sets, c.DevTLB.Ways = 0, 0 }, true},
		{"iotlb sets not a power of two", func(c *Config) {
			c.IOMMU.IOTLB = tlb.Config{Name: "iotlb", Sets: 3, Ways: 8, Policy: tlb.LRU}
		}, false},
		{"iotlb disabled", func(c *Config) { c.IOMMU.IOTLB = tlb.Config{} }, true},
		{"context cache empty", func(c *Config) { c.IOMMU.ContextCache.Sets = 0 }, false},
		{"l2pwc sets not a power of two", func(c *Config) { c.IOMMU.L2PWC.Sets = 24 }, false},
		{"l3pwc unknown policy", func(c *Config) { c.IOMMU.L3PWC.Policy = tlb.Oracle + 1 }, false},
		{"devtlb unknown index mode", func(c *Config) { c.DevTLB.Index = tlb.IndexMode(7) }, false},
		{"prefetch buffer over the entry cap", func(c *Config) { c.Prefetch.BufferEntries = 1 << 21 }, false},
		{"prefetch negative history", func(c *Config) { c.Prefetch.HistoryLen = -1 }, false},
		{"prefetch negative degree", func(c *Config) { c.Prefetch.Degree = -1 }, false},
		{"prefetch zero fields take the defaults", func(c *Config) { *c.Prefetch = device.PrefetchConfig{} }, true},
	}
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.002)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := HyperTRIOConfig()
			tc.edit(&cfg)
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if _, err := DescribePipeline(cfg); (err == nil) != tc.ok {
				t.Fatalf("DescribePipeline() err = %v, want ok=%v", err, tc.ok)
			}
			if _, err := NewSystem(cfg, tr); (err == nil) != tc.ok {
				t.Fatalf("NewSystem() err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestDevTLBNameDoesNotChangeResults pins that the DevTLB's name is a
// label only: renaming it moves its registry prefix and hit-event name,
// but every Result counter and sampled rate stays the same.
func TestDevTLBNameDoesNotChangeResults(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 16, trace.RR1, 0.002)
	runSampled := func(name string) Result {
		cfg := HyperTRIOConfig()
		cfg.DevTLB.Name = name
		cfg.Obs = &obs.Options{SampleEvery: 5 * sim.Microsecond}
		return run(t, cfg, tr)
	}
	def, named := runSampled("devtlb"), runSampled("l1")
	if def.DevTLBServed == 0 || def.DevTLB.Lookups == 0 {
		t.Fatalf("default run never used the DevTLB: served %d, %+v", def.DevTLBServed, def.DevTLB)
	}
	if named.DevTLBServed != def.DevTLBServed || named.DevTLB != def.DevTLB {
		t.Fatalf("renamed DevTLB: served %d, %+v; default: served %d, %+v",
			named.DevTLBServed, named.DevTLB, def.DevTLBServed, def.DevTLB)
	}
	if !reflect.DeepEqual(named, def) {
		t.Fatalf("renamed DevTLB changed the result:\n named   %+v\n default %+v", named, def)
	}
}

func TestSingleTenantSaturatesLink(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.02)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Utilization < 0.95 {
		t.Fatalf("single tenant utilization %.1f%%, want ~100%%", r.Utilization*100)
	}
	if r.Drops > r.Packets/100 {
		t.Fatalf("single tenant dropped %d of %d packets", r.Drops, r.Packets)
	}
}

func TestBaseCollapsesAtHighTenantCount(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 128, trace.RR1, 0.002)
	r := run(t, BaseConfig(), tr)
	// Fig. 10: Base at >32 tenants is at most ~15% of the link.
	if r.Utilization > 0.2 {
		t.Fatalf("Base at 128 tenants reached %.1f%% utilization, expected collapse", r.Utilization*100)
	}
	if r.Drops == 0 {
		t.Fatal("Base under overload should drop packets")
	}
}

// TestBaseSerializedMissClosedForm checks Base against a closed form
// derived from Table II alone. Base has a one-entry PTB, so a packet
// holds the entry for its whole critical path. At RR1 with more tenants
// than the 64-entry context cache every request misses the DevTLB and
// the context cache: a DevTLB probe, the PCIe round trip, two context
// accesses and a full 24-access nested walk. The entry is busy for k
// link slots, so every packet after the first loses k-1 slots:
// Drops == (k-1) x (Packets-1) exactly. Where some requests hit (RR4,
// RAND1) the path can only be shorter, so the identity is a bound.
func TestBaseSerializedMissClosedForm(t *testing.T) {
	p := DefaultParams()
	walk := (mem.Levels+1)*(mem.Levels+1) - 1 // guest x host nested walk
	crit := p.TLBHit + 2*p.PCIeOneWay + sim.Duration(2+walk)*p.DRAMLatency
	gap := p.Interarrival()
	k := uint64((crit + gap - 1) / gap)
	if k != 36 {
		t.Fatalf("Table II gives k = %d slots per packet (critical path %v, slot %v); the paper's parameters give 36", k, crit, gap)
	}
	for _, c := range []struct {
		iv    trace.Interleave
		exact bool
	}{
		{trace.RR1, true},
		{trace.RR4, false},
		{trace.RAND1, false},
	} {
		r := run(t, BaseConfig(), makeTrace(t, workload.Iperf3, 128, c.iv, 0.002))
		want := (k - 1) * (r.Packets - 1)
		t.Logf("%v: %d packets, %d drops, bound %d", c.iv, r.Packets, r.Drops, want)
		if c.exact && r.Drops != want {
			t.Errorf("%v: %d drops over %d packets, want (k-1)(Packets-1) = %d", c.iv, r.Drops, r.Packets, want)
		}
		if r.Drops > want {
			t.Errorf("%v: %d drops over %d packets exceed the serialized-miss bound %d", c.iv, r.Drops, r.Packets, want)
		}
	}
}

func TestHyperTRIOBeatsBaseAtScale(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 128, trace.RR1, 0.002)
	base := run(t, BaseConfig(), tr)
	hyper := run(t, HyperTRIOConfig(), tr)
	if hyper.AchievedGbps <= 2*base.AchievedGbps {
		t.Fatalf("HyperTRIO %.1f Gb/s not decisively above Base %.1f Gb/s",
			hyper.AchievedGbps, base.AchievedGbps)
	}
}

func TestNativeModeLineRate(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.005)
	cfg := BaseConfig()
	cfg.TranslationOff = true
	r := run(t, cfg, tr)
	if r.Utilization < 0.99 {
		t.Fatalf("native mode utilization %.2f%%, want ~100%%", r.Utilization*100)
	}
	if r.Drops != 0 {
		t.Fatalf("native mode dropped %d packets", r.Drops)
	}
}

func TestAccountingInvariants(t *testing.T) {
	tr := makeTrace(t, workload.Mediastream, 16, trace.RR4, 0.01)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("processed %d packets, trace has %d", r.Packets, len(tr.Packets))
	}
	if r.Requests != r.Packets*workload.RequestsPerPacket {
		t.Fatalf("requests %d != packets*3 %d", r.Requests, r.Packets*3)
	}
	if r.Bytes != r.Packets*uint64(DefaultParams().PacketBytes) {
		t.Fatalf("bytes %d inconsistent", r.Bytes)
	}
	if r.DevTLBServed+r.PrefetchServed > r.Requests {
		t.Fatal("served counts exceed requests")
	}
	if r.Utilization < 0 || r.Utilization > 1.001 {
		t.Fatalf("utilization %.3f out of range", r.Utilization)
	}
	if r.PTB.Peak > HyperTRIOConfig().PTBEntries {
		t.Fatalf("PTB peak %d beyond capacity", r.PTB.Peak)
	}
}

// TestCheckConservation tampers each count the after-drain check reads
// and expects an error, on the translated and the native path.
func TestCheckConservation(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	finished := func(t *testing.T, cfg Config) (*System, Result) {
		t.Helper()
		s, err := NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Packets == 0 {
			t.Fatal("empty run")
		}
		return s, r
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		tamper func(s *System, r *Result)
	}{
		{"requests", BaseConfig(), func(_ *System, r *Result) { r.Requests++ }},
		{"drops", BaseConfig(), func(_ *System, r *Result) { r.Drops++ }},
		{"ptb allocs", BaseConfig(), func(_ *System, r *Result) { r.PTB.Allocs++ }},
		{"ptb in use", HyperTRIOConfig(), func(s *System, _ *Result) { s.chain.Admit() }},
		{"native requests", Config{Params: DefaultParams(), TranslationOff: true},
			func(_ *System, r *Result) { r.Requests-- }},
		{"native drops", Config{Params: DefaultParams(), TranslationOff: true},
			func(_ *System, r *Result) { r.Drops = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, r := finished(t, c.cfg)
			if err := s.checkConservation(r); err != nil {
				t.Fatalf("untampered run: %v", err)
			}
			c.tamper(s, &r)
			if err := s.checkConservation(r); err == nil || !strings.Contains(err.Error(), "conservation violated") {
				t.Fatalf("checkConservation = %v, want a conservation error", err)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 32, trace.RAND1, 0.004)
	a := run(t, HyperTRIOConfig(), tr)
	b := run(t, HyperTRIOConfig(), tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestPrefetcherServesRequests(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 64, trace.RR1, 0.004)
	r := run(t, HyperTRIOConfig(), tr)
	if r.Prefetch.Issued == 0 {
		t.Fatal("no prefetches issued at 64 tenants")
	}
	if r.PrefetchServed == 0 {
		t.Fatal("prefetch buffer served nothing under round-robin interleaving")
	}
}

func TestDevTLBDisabled(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 4, trace.RR1, 0.002)
	cfg := BaseConfig()
	cfg.DevTLB.Sets = 0 // disable: every request goes to the chipset
	cfg.PTBEntries = 64
	cfg.IOMMU.IOTLB = tlb.Config{Name: "iotlb", Sets: 128, Ways: 8, Policy: tlb.LRU}
	r := run(t, cfg, tr)
	if r.DevTLBServed != 0 {
		t.Fatal("disabled DevTLB served requests")
	}
	if r.IOMMU.IOTLB.Lookups == 0 {
		t.Fatal("chipset IOTLB unused")
	}
	if r.IOMMU.Translations != r.Requests {
		t.Fatalf("IOMMU saw %d translations, want all %d requests", r.IOMMU.Translations, r.Requests)
	}
}

func TestOracleDevTLBRuns(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 8, trace.RR1, 0.002)
	cfg := BaseConfig()
	cfg.DevTLB.Policy = tlb.Oracle
	lru := run(t, BaseConfig(), tr)
	oracle := run(t, cfg, tr)
	if oracle.DevTLB.Misses > lru.DevTLB.Misses {
		t.Fatalf("oracle misses %d > LFU misses %d", oracle.DevTLB.Misses, lru.DevTLB.Misses)
	}
}

// TestOracleChipsetCacheRejected pins that only the DevTLB may run the
// Oracle policy: the chipset caches are never handed the future, so a
// config naming one is an error from Validate and NewSystem, not a panic
// at the first eviction.
func TestOracleChipsetCacheRejected(t *testing.T) {
	tr := makeTrace(t, workload.Websearch, 64, trace.RR1, 0.002)
	for _, c := range []struct {
		name  string
		cache func(*Config) *tlb.Config
	}{
		{"context cache", func(c *Config) *tlb.Config { return &c.IOMMU.ContextCache }},
		{"IOTLB", func(c *Config) *tlb.Config { return &c.IOMMU.IOTLB }},
		{"L2 PWC", func(c *Config) *tlb.Config { return &c.IOMMU.L2PWC }},
		{"L3 PWC", func(c *Config) *tlb.Config { return &c.IOMMU.L3PWC }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := HyperTRIOConfig()
			cc := c.cache(&cfg)
			if cc.Sets == 0 {
				*cc = tlb.Config{Name: "iotlb", Sets: 4, Ways: 4}
			}
			cc.Policy = tlb.Oracle
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Fatalf("Validate = %v, want an error naming the %s", err, c.name)
			}
			if _, err := NewSystem(cfg, tr); err == nil {
				t.Fatal("NewSystem accepted an Oracle chipset cache")
			}
		})
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := NewSystem(BaseConfig(), &trace.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	tr := makeTrace(t, workload.Iperf3, 1, trace.RR1, 0.001)
	s, err := NewSystem(BaseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestArrivalRateCap(t *testing.T) {
	// Fig. 5 machinery: capping the offered load must cap the result.
	tr := makeTrace(t, workload.Iperf3, 2, trace.RR1, 0.005)
	cfg := HyperTRIOConfig()
	cfg.Params.ArrivalGbps = 20
	r := run(t, cfg, tr)
	if r.AchievedGbps > 21 {
		t.Fatalf("achieved %.1f Gb/s above the 20 Gb/s offered load", r.AchievedGbps)
	}
	if r.AchievedGbps < 18 {
		t.Fatalf("achieved %.1f Gb/s, expected ~20 with ample translation headroom", r.AchievedGbps)
	}
}
