// Package scenarios is the committed scenario library: one canonical
// hypertrio-scenario/1 document per file, embedded in the binaries and
// decoded by scenario.ByName. In experiment order:
//
// noisy-neighbor is the heavy-hitter isolation scenario: twelve
// well-behaved iperf3 victims share the device with four noisy-neighbor
// tenants holding eight arbitration slots each. The adversary crowds
// the link (32 of 44 slots per round-robin cycle) and the shared
// translation caches; the signal under test is the victim class's
// throughput floor.
//
// sid-flood is the IOTLB-thrash scenario: twelve iperf3 victims beside
// two flood tenants running FloodProfile at four arbitration slots
// each, a single-use entry stream sweeping the shared IOTLB and walk
// caches. The signal under test is the victims' hit-rate and latency
// degradation versus the neutral twin.
//
// incast is the synchronized fan-in scenario: sixteen mediastream
// tenants idle at 35% load, then a phase of 25 µs microbursts to full
// rate every 100 µs; the translation structures absorb a cold spike at
// the top of every period.
//
// diurnal is the day/night curve: sixteen websearch tenants under a
// triangle wave between 25% and 95% load with a 1 ms period, three full
// days over the horizon. Locality-poor websearch exercises the walk
// path hardest exactly when the curve peaks.
//
// storm is the invalidation-storm-at-peak scenario: sixteen iperf3
// tenants ramp to full load, then hold the peak while a shootdown storm
// (600 tenant-wide invalidations) and a walker-fault storm (200 armed
// faults) land on them, then cool to half load. The control is
// WithoutOverlays (identical load, no faults), so the pinned signal is
// the storm's cost alone.
package scenarios

import "embed"

// FS holds every committed scenario as <name>.json.
//
//go:embed *.json
var FS embed.FS
