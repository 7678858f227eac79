package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// TraceSchema names the NDJSON trace format; the first line of every
// trace file is a schema event carrying it, so consumers can detect
// format drift. Bump the suffix on any incompatible field change (the
// golden test in this package pins the current shape).
const TraceSchema = "hypertrio-trace/1"

// Event is one NDJSON trace record. T is simulated picoseconds. Ev is
// the event kind; the model emits
//
//	arrival, retry, drop, complete          — link slots and packets
//	devtlb_hit, devtlb_miss, prefetch_hit   — per translation request
//	walk_start, walk_end                    — chipset page-table walks
//	prefetch_issue, prefetch_fill, prefetch_abort
//
// a loaded fault plan (internal/fault) additionally emits
//
//	invalidate, remap, walker_fault         — scripted events firing
//	detach, attach                          — tenant churn
//	fault_retry                             — a faulted walk backing off
//	rewalk, stale_hit                       — re-walk / stale-window tracking
//
// and, with Options.EngineEvents, the kernel emits sched and fire.
// Optional fields are omitted when zero. IOVA is hex-encoded because
// guest addresses exceed JSON's exact-integer range.
type Event struct {
	T     int64  `json:"t"`
	Ev    string `json:"ev"`
	SID   uint32 `json:"sid,omitempty"`
	IOVA  string `json:"iova,omitempty"`
	Shift uint8  `json:"shift,omitempty"`
	DurPs int64  `json:"dur_ps,omitempty"`
	N     int    `json:"n,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	Label string `json:"label,omitempty"` // the schema header's schema name
}

// Hex renders an address for Event.IOVA.
func Hex(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

// Tracer serializes Events as NDJSON to a writer. Emit is safe on a nil
// *Tracer (a no-op), so holders can call it unconditionally; hot paths
// in the model still guard with a nil check to avoid building the Event
// at all. The first write error is sticky and reported by Flush.
type Tracer struct {
	bw     *bufio.Writer
	enc    *json.Encoder
	events uint64
	err    error
}

// NewTracer wraps w in a buffered NDJSON encoder and emits the schema
// header event. Call Flush before closing the underlying writer.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	t := &Tracer{bw: bw, enc: json.NewEncoder(bw)}
	t.Emit(Event{Ev: "schema", Label: TraceSchema})
	return t
}

// Emit writes one event line.
func (t *Tracer) Emit(ev Event) {
	if t == nil || t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
		return
	}
	t.events++
}

// Events returns how many events have been emitted (schema line included).
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Flush drains the buffer and returns the first error seen, if any.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}
