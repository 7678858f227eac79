package trace

import (
	"errors"
	"fmt"
	"io"
	"math"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// Binary trace format ("HSIO"):
//
//	magic   [4]byte  "HSIO"
//	version uvarint
//	header: benchmark uint8, interleave kind uint8, burst varint,
//	        tenants varint, seed varint (zigzag), scale float64,
//	        packet count varint, tenant-stat count varint
//	tenant stats: sid, budget, consumed, packets (varints)
//	packets: sid varint, then the packet record (codec.go)
//
// The format favours compactness (varints, per-field deltas) so that
// paper-scale traces (~70M requests) remain practical on disk.

const (
	magic   = "HSIO"
	version = 1
)

// ErrMalformed reports a trace file whose header or records are
// well-formed varints but describe no trace the constructor can build:
// an unknown benchmark or interleaving, a zero burst, a stat count that
// is not the tenant count, or a packet SID outside 1..Tenants.
var ErrMalformed = errors.New("malformed trace")

// Write serializes the trace to w.
func Write(w io.Writer, t *Trace) error {
	e := newEncoder(w)
	e.Byte(byte(t.Benchmark))
	e.Byte(byte(t.Interleave.Kind))
	e.Uvarint(uint64(t.Interleave.Burst))
	e.Uvarint(uint64(t.Tenants))
	e.Varint(t.Seed)
	e.Fixed64(math.Float64bits(t.Scale))
	// Effective workload profile (drives page-table construction on
	// replay); Kind is implied by the header's benchmark byte.
	smallData := uint64(0)
	if t.Profile.SmallData {
		smallData = 1
	}
	for _, v := range []uint64{
		uint64(t.Profile.DataPages), uint64(t.Profile.Streams),
		uint64(t.Profile.BackgroundChance), uint64(t.Profile.RunLength),
		uint64(t.Profile.InitPages), uint64(t.Profile.InitTouches),
		uint64(t.Profile.JumpChance),
		uint64(t.Profile.MinRequests), uint64(t.Profile.MaxRequests),
		smallData,
	} {
		e.Uvarint(v)
	}
	e.Uvarint(uint64(len(t.Packets)))
	e.Uvarint(uint64(len(t.Stats)))
	for _, s := range t.Stats {
		e.Uvarint(uint64(s.SID))
		e.Uvarint(uint64(s.Budget))
		e.Uvarint(uint64(s.Consumed))
		e.Uvarint(uint64(s.Packets))
	}
	for _, p := range t.Packets {
		e.Uvarint(uint64(p.SID))
		e.Packet(p)
	}
	return e.Flush()
}

// Read deserializes a trace written by Write. A file that decodes but
// describes no constructible trace fails with an error wrapping
// ErrMalformed, so a replay never reaches the model with it.
func Read(r io.Reader) (*Trace, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t := &Trace{}
	t.Benchmark = workload.Kind(d.Byte())
	t.Interleave.Kind = InterleaveKind(d.Byte())
	t.Interleave.Burst = int(d.Uvarint())
	tenants := d.Uvarint()
	t.Tenants = int(tenants)
	t.Seed = d.Varint()
	t.Scale = math.Float64frombits(d.Fixed64())
	t.Profile = workload.Profile{
		Kind:             t.Benchmark,
		DataPages:        int(d.Uvarint()),
		Streams:          int(d.Uvarint()),
		BackgroundChance: uint8(d.Uvarint()),
		RunLength:        int(d.Uvarint()),
		InitPages:        int(d.Uvarint()),
		InitTouches:      int(d.Uvarint()),
		JumpChance:       uint8(d.Uvarint()),
		MinRequests:      int(d.Uvarint()),
		MaxRequests:      int(d.Uvarint()),
		SmallData:        d.Uvarint() != 0,
	}
	npkts, nstats := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if !t.Benchmark.Known() {
		return nil, fmt.Errorf("trace: %w: unknown benchmark %v", ErrMalformed, t.Benchmark)
	}
	if t.Interleave.Validate() != nil {
		return nil, fmt.Errorf("trace: %w: interleave %v", ErrMalformed, t.Interleave)
	}
	if err := t.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w: embedded profile: %v", ErrMalformed, err)
	}
	if nstats != tenants {
		return nil, fmt.Errorf("trace: %w: %d tenant stats for %d tenants", ErrMalformed, nstats, tenants)
	}
	t.Stats = records(d, nstats, func(d *decoder) TenantStat {
		return TenantStat{SID: mem.SID(d.Uvarint()), Budget: int(d.Uvarint()), Consumed: int(d.Uvarint()), Packets: int(d.Uvarint())}
	})
	t.Packets = records(d, npkts, func(d *decoder) workload.Packet {
		sid := d.Uvarint()
		if d.err == nil && (sid == 0 || sid > tenants) {
			d.err = fmt.Errorf("%w: packet SID %d outside 1..%d", ErrMalformed, sid, tenants)
		}
		return d.Packet(mem.SID(sid))
	})
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}
