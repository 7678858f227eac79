package hypertrio_test

import (
	"fmt"

	"hypertrio"
)

// ExampleRun shares one 200 Gb/s device between 64 tenants running the
// websearch workload and compares the conventional (Base) translation
// design with HyperTRIO.
func ExampleRun() {
	// A hyper-tenant trace: 64 websearch tenants, round-robin
	// interleaving, at 1% of the paper's trace length.
	tr, err := hypertrio.ConstructTrace(hypertrio.TraceConfig{
		Benchmark:  hypertrio.Websearch,
		Tenants:    64,
		Interleave: hypertrio.RR1,
		Seed:       42,
		Scale:      0.01,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, design := range []struct {
		name string
		cfg  hypertrio.Config
	}{
		{"Base     ", hypertrio.BaseConfig()},
		{"HyperTRIO", hypertrio.HyperTRIOConfig()},
	} {
		res, err := hypertrio.Run(design.cfg, tr)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s  %s\n", design.name, res)
	}
	// Output:
	// Base       5.71 Gb/s (2.9% of link), 9286 packets, 315754 drops, devtlb hit 0.0%
	// HyperTRIO  199.43 Gb/s (99.7% of link), 9286 packets, 8 drops, devtlb hit 19.1%
}

// Example_kvstore models the paper's introductory motivation: a
// memcached-style key-value store, most keys under 60 B and values under
// 1000 B, leaves a 200 Gb/s device far less time per packet than
// full-size Ethernet frames. A custom Profile describes the store (small
// packets, a compact but irregular buffer set, request-driven arrivals)
// and each design replays it at three tenant counts.
//
// The "no prefetch" row is HyperTRIO with the Prefetch Unit removed: at
// 128 and 512 tenants it keeps nearly all of HyperTRIO's bandwidth, so
// on this workload the gain comes from the PTB and the partitioned
// DevTLB, not from prefetching (EXPERIMENTS.md, Fig. 12c).
func Example_kvstore() {
	// A key-value responder: values fit in a few hundred bytes, buffers
	// cycle quickly, access is request-driven rather than streaming.
	kv := hypertrio.Profile{
		Kind:             hypertrio.Websearch, // closest base kind, for labeling
		DataPages:        24,
		Streams:          20,
		BackgroundChance: 96, // request-driven: frequent buffer switches
		RunLength:        200,
		InitPages:        32,
		InitTouches:      3,
		JumpChance:       64,
		MinRequests:      40000,
		MaxRequests:      90000,
	}
	noPrefetch := hypertrio.HyperTRIOConfig()
	noPrefetch.Prefetch = nil

	fmt.Printf("%-7s  %-22s  %5s  %6s\n", "tenants", "design", "Gb/s", "drops")
	for _, tenants := range []int{16, 128, 512} {
		tr, err := hypertrio.ConstructTrace(hypertrio.TraceConfig{
			Benchmark:  kv.Kind,
			Tenants:    tenants,
			Interleave: hypertrio.RAND1, // independent request arrivals
			Seed:       7,
			Scale:      0.01,
			Profile:    &kv,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, design := range []struct {
			name string
			cfg  hypertrio.Config
		}{
			{"Base                  ", hypertrio.BaseConfig()},
			{"HyperTRIO             ", hypertrio.HyperTRIOConfig()},
			{"HyperTRIO, no prefetch", noPrefetch},
		} {
			cfg := design.cfg
			// ~520 B on the wire: 60 B key + ~430 B value + headers.
			cfg.Params.PacketBytes = 520
			res, err := hypertrio.Run(cfg, tr)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("%7d  %s  %5.1f  %5.2f%%\n",
				tenants, design.name, res.AchievedGbps, res.DropRate()*100)
		}
	}
	// Output:
	// tenants  design                   Gb/s   drops
	//      16  Base                      5.2  97.39%
	//      16  HyperTRIO               190.6   2.30%
	//      16  HyperTRIO, no prefetch  190.6   2.30%
	//     128  Base                      2.1  98.94%
	//     128  HyperTRIO               110.8  44.49%
	//     128  HyperTRIO, no prefetch  109.6  45.10%
	//     512  Base                      1.9  99.03%
	//     512  HyperTRIO               105.7  47.12%
	//     512  HyperTRIO, no prefetch  105.3  47.31%
}

// Example_prefetchTuning explores the Prefetch Unit's parameters the way
// §V-D does: Prefetch Buffer size, the history-length register (the
// SID-predictor's look-ahead, in requests) and the prefetch degree, on
// 256 websearch tenants under RR1. Each row changes one setting of the
// Table IV default on a copy of it.
//
// The link stays saturated here: the Gb/s column reads 199.3 on every
// row, so the PB-served column, the share of demand requests the
// Prefetch Buffer answered, is the one that carries the result.
//
// The paper found a fixed look-ahead of 48 requests best on its model.
// On this model a fixed register at 48 serves nothing. It serves only
// from 74 to 85 requests, most (53.2%) from 77 to 79; the predictor looks
// ahead in whole tenant hops of three requests at RR1, so that window is
// 25 to 28 hops. The rows at 75, 78 and 84 sit inside it, 72 and 90 just
// outside. The adaptive register settles at the peak on its own.
func Example_prefetchTuning() {
	tr, err := hypertrio.ConstructTrace(hypertrio.TraceConfig{
		Benchmark:  hypertrio.Websearch,
		Tenants:    256,
		Interleave: hypertrio.RR1,
		Seed:       42,
		Scale:      0.004,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	// row runs one configuration and prints its line; the system is kept
	// so the adaptive row can read where the register settled.
	row := func(label string, edit func(*hypertrio.Config)) *hypertrio.System {
		cfg := hypertrio.HyperTRIOConfig()
		edit(&cfg)
		sys, err := hypertrio.NewSystem(cfg, tr)
		if err != nil {
			fmt.Println(err)
			return nil
		}
		res, err := sys.Run()
		if err != nil {
			fmt.Println(err)
			return nil
		}
		served := "-"
		if cfg.Prefetch != nil {
			served = fmt.Sprintf("%.1f%%", res.PrefetchServedShare()*100)
		}
		fmt.Printf("%-26s %6.1f %9s\n", label, res.AchievedGbps, served)
		return sys
	}

	fmt.Printf("%-26s %6s %9s\n", "prefetch configuration", "Gb/s", "PB served")
	row("disabled", func(cfg *hypertrio.Config) { cfg.Prefetch = nil })
	// Buffer size (paper: 8 entries is the sweet spot).
	for _, entries := range []int{2, 4, 8, 32} {
		row(fmt.Sprintf("buffer=%d", entries), func(cfg *hypertrio.Config) {
			pf := *cfg.Prefetch
			pf.BufferEntries = entries
			cfg.Prefetch = &pf
		})
	}
	// A fixed history length, with the adaptive register turned off.
	for _, hl := range []int{12, 48, 72, 75, 78, 84, 90, 144} {
		row(fmt.Sprintf("history=%d (fixed)", hl), func(cfg *hypertrio.Config) {
			pf := *cfg.Prefetch
			pf.HistoryLen, pf.AdaptiveHistory = hl, false
			cfg.Prefetch = &pf
		})
	}
	// Degree (paper: the 2 most recent pages per tenant).
	for _, deg := range []int{1, 2, 3, 4} {
		row(fmt.Sprintf("degree=%d", deg), func(cfg *hypertrio.Config) {
			pf := *cfg.Prefetch
			pf.Degree = deg
			cfg.Prefetch = &pf
		})
	}
	if sys := row("default (adaptive history)", func(*hypertrio.Config) {}); sys != nil {
		g := sys.Registry().Snapshot().Gauges
		fmt.Printf("adaptive register settles at %.0f requests\n", g["prefetch.predictor.history_len"])
	}
	// Output:
	// prefetch configuration       Gb/s PB served
	// disabled                    199.3         -
	// buffer=2                    199.3      1.4%
	// buffer=4                    199.3     37.0%
	// buffer=8                    199.3     52.9%
	// buffer=32                   199.3     52.9%
	// history=12 (fixed)          199.3      0.0%
	// history=48 (fixed)          199.3      0.0%
	// history=72 (fixed)          199.3      0.0%
	// history=75 (fixed)          199.3     35.2%
	// history=78 (fixed)          199.3     53.2%
	// history=84 (fixed)          199.3     19.9%
	// history=90 (fixed)          199.3      0.0%
	// history=144 (fixed)         199.3      0.0%
	// degree=1                    199.3     25.8%
	// degree=2                    199.3     52.9%
	// degree=3                    199.3     52.6%
	// degree=4                    199.3     50.4%
	// default (adaptive history)  199.3     52.9%
	// adaptive register settles at 78 requests
}
