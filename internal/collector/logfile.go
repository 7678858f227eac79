package collector

import (
	"fmt"
	"io"

	"hypertrio/internal/mem"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// Binary per-run log format ("HLOG"): the on-disk shape of one emulated
// run's recorded logs, so collection and merging can be separate steps
// (as they are in the paper's pipeline, where each QEMU run writes its
// logs before the Trace Constructor reads them all).
//
//	magic   [4]byte "HLOG"
//	version uvarint
//	run     uvarint
//	logs    uvarint
//	per log: slot, sid, budget, packet count (uvarints), then packets in
//	         the packet record shared with HSIO traces (trace.Encoder)

const (
	logMagic   = "HLOG"
	logVersion = 1
)

// WriteLogs serializes one run's logs.
func WriteLogs(w io.Writer, run int, logs []TenantLog) error {
	for _, l := range logs {
		if l.Run != run {
			return fmt.Errorf("collector: log for SID %d belongs to run %d, writing run %d", l.SID, l.Run, run)
		}
	}
	e := trace.NewEncoder(w, logMagic, logVersion)
	e.Uvarint(uint64(run))
	e.Uvarint(uint64(len(logs)))
	for _, l := range logs {
		e.Uvarint(uint64(l.Slot))
		e.Uvarint(uint64(l.SID))
		e.Uvarint(uint64(l.Budget))
		e.Uvarint(uint64(len(l.Packets)))
		for _, p := range l.Packets {
			e.Packet(p)
		}
	}
	return e.Flush()
}

// ReadLogs deserializes one run's logs.
func ReadLogs(r io.Reader) (run int, logs []TenantLog, err error) {
	d, err := trace.NewDecoder(r, logMagic, logVersion)
	if err != nil {
		return 0, nil, fmt.Errorf("collector: %w", err)
	}
	run = int(d.Uvarint())
	count := d.Uvarint()
	if count > MaxSlotsPerRun {
		return 0, nil, fmt.Errorf("collector: %d logs in one run (max %d)", count, MaxSlotsPerRun)
	}
	logs = trace.Records(d, count, func(d *trace.Decoder) TenantLog {
		l := TenantLog{Run: run, Slot: int(d.Uvarint()), SID: mem.SID(d.Uvarint()), Budget: int(d.Uvarint())}
		l.Packets = trace.Records(d, d.Uvarint(), func(d *trace.Decoder) workload.Packet { return d.Packet(l.SID) })
		return l
	})
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("collector: %w", err)
	}
	return run, logs, nil
}
