package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// The traced run attaches the model's NDJSON tracer (with engine events)
// to a decoder, which turns the event stream into one compact call log
// per layer as it arrives, so the stream itself is never stored. Each
// log holds exactly the calls the live run made into that layer's
// public functions, in order; layers.go replays them on fresh
// structures. The decoder relies on the model's tracing contract:
//
//   - "arrival"/"retry" is one PTB Alloc; a following "drop" means it
//     failed; "complete" is one PTB Release.
//   - A request event ("devtlb_hit", "prefetch_hit", "devtlb_miss") is
//     one DevTLB lookup, and one Prefetch Buffer lookup when the DevTLB
//     missed. The first request event of an admitted packet follows its
//     predictor Observe; after its third, a packet with a full miss asks
//     ShouldPrefetch.
//   - "walk_start" is one demand Translate; of the next two engine
//     "sched" events the second is the completion, whose "fire" refills
//     the DevTLB.
//   - "prefetch_issue" is followed by the "sched" of the history read;
//     its "fire" runs the prefetch translations (the walker pool is
//     unlimited in every workload). Unless "prefetch_abort" follows, the
//     next two "sched" events are walk end and fill, and the fill's
//     "fire" carries the "prefetch_fill" event (one Complete).
//   - A driver unmap (known from the packet stream) and the fault
//     injector's "invalidate"/"detach" events reach every stage.
//
// Any event sequence outside that contract fails the decode instead of
// producing a log that measures a different program.

// Per-layer call logs.
type (
	// cacheOp is one DevTLB call.
	cacheOp struct {
		iova  uint64
		sid   uint32
		kind  uint8
		shift uint8
	}
	// pfOp is one Prefetch Unit call. arg is the IOVA of a lookup or
	// invalidation; for a completion, the prefetch-walk index (high 32
	// bits) and the observed latency in requests (low 32 bits).
	pfOp struct {
		arg  uint64
		sid  uint32
		kind uint8
		// shift is the page shift of lookups and invalidations; for a
		// completion, n is the number of entries the live fill carried.
		shift uint8
		n     uint16
	}
	// mmuOp is one chipset call. n is the live access count of a demand
	// translation, used to check the replay.
	mmuOp struct {
		iova  uint64
		sid   uint32
		kind  uint8
		shift uint8
		n     uint16
	}
)

// Op kinds shared by the cache, prefetch and chipset logs.
const (
	opLookup uint8 = iota
	opFill
	opInvalidate
	opInvalidateSID
	opFlush
	opObserve
	opShould
	opComplete
	opAbort
	opTranslate
	opPrefetchWalk
)

// Sim log encoding: 0 is one Step; v > 0 schedules an event v-1 ps after
// the current time; simWide marks an offset too large for 32 bits, held
// in the next two words (high, low).
const simWide = ^uint32(0)

// logs is everything the decoder extracts from one traced replay.
type logs struct {
	sim      []uint32
	fires    uint64
	fireHash uint64 // FNV-1a over fire times, checked by the sim replay

	ptb    []bool // true = Alloc, false = Release
	devtlb []cacheOp
	pf     []pfOp
	mmu    []mmuOp

	packets  uint64 // completions
	slots    uint64 // arrival attempts
	requests uint64
}

// expectation is what the decoder will make of the next "sched" event.
type expectation struct {
	kind uint8 // expIgnore, expFill, expPfArrive, expPfFill
	sid  uint32
	iova uint64
	arg  uint32 // shift for fills, walk index for prefetch fills
}

const (
	expIgnore uint8 = iota
	expFill
	expPfArrive
	expPfFill
)

// decoder implements io.Writer over the tracer's NDJSON output.
type decoder struct {
	logs

	hasDevTLB, hasPrefetch bool
	interarrival           float64 // ps, for prefetch latency in requests

	shadow  trace.Source // replays the packet stream to learn unmaps
	partial []byte
	err     error

	now           int64
	prefetchWalks int
	expect        []expectation
	pending       map[uint64]expectation // engine seq -> action at its fire
	fillWalk      int64                  // prefetch walk of the current fill fire, or -1

	admitPending bool
	admitSID     uint32
	pktReqs      int
	pktMiss      bool
}

func newDecoder(shadow trace.Source, hasDevTLB, hasPrefetch bool, interarrival float64) *decoder {
	return &decoder{
		shadow:       shadow,
		hasDevTLB:    hasDevTLB,
		hasPrefetch:  hasPrefetch,
		interarrival: interarrival,
		pending:      make(map[uint64]expectation),
		fillWalk:     -1,
		logs:         logs{fireHash: fnvOffset},
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(v>>(8*i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Write consumes whole lines and carries a trailing partial line over to
// the next call. The first decode error is sticky and stops decoding.
func (d *decoder) Write(p []byte) (int, error) {
	n := len(p)
	if d.err != nil {
		return n, nil
	}
	if len(d.partial) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			d.partial = append(d.partial, p...)
			return n, nil
		}
		d.partial = append(d.partial, p[:i]...)
		d.line(d.partial)
		d.partial = d.partial[:0]
		p = p[i+1:]
	}
	for d.err == nil {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			d.partial = append(d.partial, p...)
			break
		}
		d.line(p[:i])
		p = p[i+1:]
	}
	return n, nil
}

// finish reports the first decode error, or an incomplete stream.
func (d *decoder) finish() error {
	switch {
	case d.err != nil:
		return d.err
	case len(d.partial) > 0:
		return errors.New("decode: trace ends mid-line")
	case len(d.expect) > 0 || len(d.pending) > 0:
		return fmt.Errorf("decode: %d scheduled and %d fired expectations left unmatched", len(d.expect), len(d.pending))
	case d.admitPending || d.pktReqs != 0:
		return errors.New("decode: trace ends inside a packet")
	}
	return nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("decode: "+format, args...)
	}
}

// event is one parsed trace line; ev aliases the line buffer.
type event struct {
	t, dur, n int64
	seq       uint64
	iova      uint64
	sid       uint32
	shift     uint8
	ev        []byte
}

func (d *decoder) line(b []byte) {
	var e event
	if err := parseEvent(b, &e); err != nil {
		d.fail("%v in %q", err, b)
		return
	}
	switch string(e.ev) {
	case "schema", "walk_end", "attach", "walker_fault", "fault_retry", "rewalk", "stale_hit":
	case "sched":
		d.sched(&e)
	case "fire":
		d.fire(&e)
	case "arrival", "retry":
		d.arrival(&e)
	case "drop":
		if !d.admitPending {
			d.fail("drop without an arrival")
		}
		d.admitPending = false
	case "devtlb_hit", "prefetch_hit", "devtlb_miss":
		d.request(&e)
	case "walk_start":
		d.mmu = append(d.mmu, mmuOp{kind: opTranslate, sid: e.sid, iova: e.iova, shift: e.shift, n: uint16(e.n)})
		d.expect = append(d.expect, expectation{kind: expIgnore},
			expectation{kind: expFill, sid: e.sid, iova: e.iova, arg: uint32(e.shift)})
	case "complete":
		d.ptb = append(d.ptb, false)
		d.packets++
	case "prefetch_issue":
		d.expect = append(d.expect, expectation{kind: expPfArrive, sid: e.sid})
	case "prefetch_abort":
		if len(d.expect) != 2 || d.expect[1].kind != expPfFill {
			d.fail("prefetch_abort outside a history read")
			return
		}
		d.expect = d.expect[:0]
		d.pf = append(d.pf, pfOp{kind: opAbort, sid: e.sid})
	case "prefetch_fill":
		if d.fillWalk < 0 {
			d.fail("prefetch_fill outside a fill event")
			return
		}
		lat := int(float64(e.dur) / d.interarrival * workload.RequestsPerPacket)
		d.pf = append(d.pf, pfOp{kind: opComplete, sid: e.sid, n: uint16(e.n),
			arg: uint64(d.fillWalk)<<32 | uint64(uint32(lat))})
		d.fillWalk = -1
	case "invalidate", "detach":
		switch {
		case e.iova != 0:
			d.invalidatePage(e.sid, e.iova, e.shift)
		case e.sid != 0:
			d.broadcast(opInvalidateSID, e.sid)
		default:
			d.broadcast(opFlush, 0)
		}
	default:
		// Remaps rewrite page tables and cancels unschedule events; no
		// workload does either, and the replays do not model them.
		d.fail("event %q is outside the replayable contract", e.ev)
	}
}

func (d *decoder) sched(e *event) {
	off := e.t - d.now
	if off < 0 {
		d.fail("event scheduled %d ps in the past", -off)
		return
	}
	if uint64(off)+1 < uint64(simWide) {
		d.sim = append(d.sim, uint32(off)+1)
	} else {
		d.sim = append(d.sim, simWide, uint32(uint64(off)>>32), uint32(off))
	}
	if len(d.expect) == 0 {
		return
	}
	x := d.expect[0]
	d.expect = d.expect[:copy(d.expect, d.expect[1:])]
	if x.kind != expIgnore {
		d.pending[e.seq] = x
	}
}

func (d *decoder) fire(e *event) {
	if len(d.expect) > 0 {
		d.fail("event fired with %d schedules still expected", len(d.expect))
		return
	}
	d.sim = append(d.sim, 0)
	d.now = e.t
	d.fires++
	d.fireHash = fnvMix(d.fireHash, e.t)
	x, ok := d.pending[e.seq]
	if !ok {
		return
	}
	delete(d.pending, e.seq)
	switch x.kind {
	case expFill:
		if d.hasDevTLB {
			d.devtlb = append(d.devtlb, cacheOp{kind: opFill, sid: x.sid, iova: x.iova, shift: uint8(x.arg)})
		}
	case expPfArrive:
		k := d.prefetchWalks
		d.prefetchWalks++
		d.mmu = append(d.mmu, mmuOp{kind: opPrefetchWalk, sid: x.sid})
		d.expect = append(d.expect, expectation{kind: expIgnore}, expectation{kind: expPfFill, arg: uint32(k)})
	case expPfFill:
		d.fillWalk = int64(x.arg)
	}
}

func (d *decoder) arrival(e *event) {
	if d.admitPending || d.pktReqs != 0 {
		d.fail("arrival inside another packet")
		return
	}
	d.slots++
	d.ptb = append(d.ptb, true)
	d.admitPending, d.admitSID = true, e.sid
	if string(e.ev) == "retry" {
		return
	}
	pkt, ok := d.shadow.Next()
	if !ok || uint32(pkt.SID) != e.sid {
		d.fail("arrival of SID %d does not match the packet stream", e.sid)
		return
	}
	if pkt.UnmapIOVA != 0 {
		d.invalidatePage(uint32(pkt.SID), pkt.UnmapIOVA, pkt.UnmapShift)
	}
}

func (d *decoder) request(e *event) {
	if d.admitPending {
		d.admitPending = false
		if e.sid != d.admitSID {
			d.fail("request of SID %d inside a packet of SID %d", e.sid, d.admitSID)
			return
		}
		if d.hasPrefetch {
			d.pf = append(d.pf, pfOp{kind: opObserve, sid: e.sid})
		}
	} else if d.pktReqs == 0 {
		d.fail("request outside an admitted packet")
		return
	}
	d.requests++
	if d.hasDevTLB {
		d.devtlb = append(d.devtlb, cacheOp{kind: opLookup, sid: e.sid, iova: e.iova, shift: e.shift})
	}
	if string(e.ev) != "devtlb_hit" && d.hasPrefetch {
		d.pf = append(d.pf, pfOp{kind: opLookup, sid: e.sid, arg: e.iova, shift: e.shift})
	}
	if string(e.ev) == "devtlb_miss" {
		d.pktMiss = true
	}
	d.pktReqs++
	if d.pktReqs < workload.RequestsPerPacket {
		return
	}
	if d.pktMiss && d.hasPrefetch {
		d.pf = append(d.pf, pfOp{kind: opShould, sid: e.sid})
	}
	d.pktReqs, d.pktMiss = 0, false
}

// invalidatePage is one page invalidation reaching every stage.
func (d *decoder) invalidatePage(sid uint32, iova uint64, shift uint8) {
	if d.hasDevTLB {
		d.devtlb = append(d.devtlb, cacheOp{kind: opInvalidate, sid: sid, iova: iova, shift: shift})
	}
	if d.hasPrefetch {
		d.pf = append(d.pf, pfOp{kind: opInvalidate, sid: sid, arg: iova, shift: shift})
	}
	d.mmu = append(d.mmu, mmuOp{kind: opInvalidate, sid: sid, iova: iova, shift: shift})
}

// broadcast is a tenant-wide invalidation or global flush reaching every
// stage.
func (d *decoder) broadcast(kind uint8, sid uint32) {
	if d.hasDevTLB {
		d.devtlb = append(d.devtlb, cacheOp{kind: kind, sid: sid})
	}
	if d.hasPrefetch {
		d.pf = append(d.pf, pfOp{kind: kind, sid: sid})
	}
	d.mmu = append(d.mmu, mmuOp{kind: kind, sid: sid})
}

// parseEvent decodes one line of the tracer's NDJSON. The tracer writes
// flat objects of integers and unescaped strings, which is all this
// accepts.
func parseEvent(b []byte, e *event) error {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return errors.New("not an object")
	}
	b = b[1 : len(b)-1]
	for len(b) > 0 {
		if b[0] != '"' {
			return errors.New("expected a key")
		}
		end := bytes.IndexByte(b[1:], '"')
		if end < 0 || len(b) < end+3 || b[end+2] != ':' {
			return errors.New("bad key")
		}
		key := b[1 : end+1]
		b = b[end+3:]
		var val []byte
		str := len(b) > 0 && b[0] == '"'
		if str {
			end := bytes.IndexByte(b[1:], '"')
			if end < 0 {
				return errors.New("unterminated string")
			}
			val, b = b[1:end+1], b[end+2:]
			if bytes.IndexByte(val, '\\') >= 0 {
				return errors.New("escaped string")
			}
		} else {
			end := bytes.IndexByte(b, ',')
			if end < 0 {
				end = len(b)
			}
			val, b = b[:end], b[end:]
		}
		if len(b) > 0 {
			if b[0] != ',' {
				return errors.New("expected a comma")
			}
			b = b[1:]
		}
		if err := e.set(key, val, str); err != nil {
			return err
		}
	}
	return nil
}

func (e *event) set(key, val []byte, str bool) error {
	switch string(key) {
	case "ev":
		e.ev = val
		return nil
	case "label":
		return nil
	case "iova":
		if !str || !bytes.HasPrefix(val, []byte("0x")) {
			return errors.New("bad iova")
		}
		v, err := strconv.ParseUint(string(val[2:]), 16, 64)
		e.iova = v
		return err
	}
	if str {
		return fmt.Errorf("string value for %q", key)
	}
	v, err := atoi(val)
	if err != nil {
		return err
	}
	switch string(key) {
	case "t":
		e.t = v
	case "sid":
		e.sid = uint32(v)
	case "shift":
		e.shift = uint8(v)
	case "dur_ps":
		e.dur = v
	case "n":
		e.n = v
	case "seq":
		e.seq = uint64(v)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// atoi parses a decimal integer of at most 18 digits, optionally
// negative: every number the tracer writes fits.
func atoi(b []byte) (int64, error) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, fmt.Errorf("bad number %q", b)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad number %q", b)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

// key is the cache key a logged request or invalidation addresses.
func key(sid uint32, iova uint64, shift uint8) tlb.Key {
	return iommu.PageKey(mem.SID(sid), iova, shift)
}
