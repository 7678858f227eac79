package main

import (
	"fmt"
	"strings"
	"time"

	"hypertrio/internal/core"
	"hypertrio/internal/scenario"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// workloadDef is one benchmark input. build turns a seed into a fresh,
// unconsumed packet source plus the configuration to replay it under;
// size scales the input down for the smoke test (1 is the benchmark).
type workloadDef struct {
	name  string
	build func(seed int64, size float64) (*instance, error)
}

// instance is one built workload: everything the harness hands the
// program, plus how long building it took.
type instance struct {
	cfg core.Config
	src trace.Source
	// fresh returns another unconsumed source of the identical packet
	// sequence (for unrun layer-replay systems and the trace decoder).
	fresh func() (trace.Source, error)

	buildS   float64 // trace construct, stream init or scenario materialize
	compileS float64 // scenario compile; zero for plain traces
}

// workloads lists the benchmark's inputs in report order. Each makes a
// different layer dominate, and each layer has a workload that bypasses
// it; bench/README.md gives the reasons.
var workloads = []workloadDef{
	{
		name:  "ht-1k",
		build: materialized(core.HyperTRIOConfig, workload.Websearch, 1024, 0.01),
	},
	{
		name:  "base-1k",
		build: materialized(core.BaseConfig, workload.Websearch, 1024, 0.01),
	},
	{
		name:  "ht-16-hits",
		build: materialized(core.HyperTRIOConfig, workload.Iperf3, 16, 1.0),
	},
	{
		name:  "ht-storm",
		build: buildStorm,
	},
	{
		name:  "ht-mega-stream",
		build: buildMegaStream,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// materialized builds a constructed (in-memory) trace workload.
func materialized(cfg func() core.Config, bench workload.Kind, tenants int, scale float64) func(int64, float64) (*instance, error) {
	return func(seed int64, size float64) (*instance, error) {
		t0 := time.Now()
		tr, err := trace.Construct(trace.Config{
			Benchmark: bench, Tenants: tenants, Interleave: trace.RR1,
			Seed: seed, Scale: scale * size,
		})
		if err != nil {
			return nil, err
		}
		return &instance{
			cfg:    cfg(),
			src:    tr.Source(),
			fresh:  func() (trace.Source, error) { return tr.Source(), nil },
			buildS: time.Since(t0).Seconds(),
		}, nil
	}
}

// buildStorm compiles and materializes the committed storm scenario with
// its seed replaced; compile and materialize are both part of set-up.
func buildStorm(seed int64, size float64) (*instance, error) {
	sc, err := scenario.ByName("storm")
	if err != nil {
		return nil, err
	}
	if size != 1 {
		sc = sc.WithScale(size)
	}
	sc.Seed = seed
	t0 := time.Now()
	c, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr, err := c.Materialize()
	if err != nil {
		return nil, err
	}
	return &instance{
		cfg:      c.Apply(core.HyperTRIOConfig()),
		src:      tr.Source(),
		fresh:    func() (trace.Source, error) { return tr.Source(), nil },
		buildS:   time.Since(t1).Seconds(),
		compileS: t1.Sub(t0).Seconds(),
	}, nil
}

// buildMegaStream builds the online 10^5-tenant source: two packets per
// tenant, so first-touch tenant state is on every other packet. size
// scales the tenant count, which keeps the two packets per tenant.
func buildMegaStream(seed int64, size float64) (*instance, error) {
	tc := trace.Config{
		Benchmark: workload.Iperf3, Tenants: int(100_000 * size), Interleave: trace.RR1,
		Seed: seed, Scale: 0.0001, RNG: workload.CompactRNG,
	}
	t0 := time.Now()
	s, err := trace.NewStream(tc)
	if err != nil {
		return nil, err
	}
	return &instance{
		cfg:    core.HyperTRIOConfig(),
		src:    s,
		fresh:  func() (trace.Source, error) { return trace.NewStream(tc) },
		buildS: time.Since(t0).Seconds(),
	}, nil
}
