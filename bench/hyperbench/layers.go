package main

import (
	"fmt"
	"math"

	"hypertrio/internal/core"
	"hypertrio/internal/device"
	"hypertrio/internal/iommu"
	"hypertrio/internal/mem"
	"hypertrio/internal/pipeline"
	"hypertrio/internal/sim"
	"hypertrio/internal/tlb"
	"hypertrio/internal/trace"
	"hypertrio/internal/workload"
)

// structures are the layer objects of one unrun System, taken from its
// composed chain so the replays run on exactly what the model builds.
type structures struct {
	ptb    *device.PTB
	devtlb *tlb.Cache
	pu     *device.PrefetchUnit
	mmu    *iommu.IOMMU
}

func structuresOf(sys *core.System) structures {
	var s structures
	for _, st := range sys.Chain().Stages() {
		switch v := st.(type) {
		case *pipeline.AdmissionStage:
			s.ptb = v.PTB()
		case *pipeline.CacheStage:
			s.devtlb = v.Cache()
		case *pipeline.PrefetchBufferStage:
			s.pu = v.Unit()
		case *pipeline.ChipsetStage:
			s.mmu = v.IOMMU()
		}
	}
	return s
}

// nopSink absorbs replayed engine events: the sim replay measures the
// engine alone, without the model's handlers.
type nopSink struct{}

func (nopSink) HandleEvent(*sim.Engine, sim.Time, uint64) {}

// replaySim schedules and fires logged events on e. When hash is not
// nil it folds in every fire time, for comparison with the decoder's.
func replaySim(e *sim.Engine, ops []uint32, hash *uint64) {
	var sink nopSink
	for i := 0; i < len(ops); i++ {
		switch v := ops[i]; v {
		case 0:
			e.Step()
			if hash != nil {
				*hash = fnvMix(*hash, int64(e.Now()))
			}
		case simWide:
			e.ScheduleEvent(sim.Duration(uint64(ops[i+1])<<32|uint64(ops[i+2])), sink, 0)
			i += 2
		default:
			e.ScheduleEvent(sim.Duration(v-1), sink, 0)
		}
	}
}

// simSegmentEnds cuts the sim log into segments of at least every words
// that never split a wide entry.
func simSegmentEnds(ops []uint32, every int) []int {
	var ends []int
	next := every
	for i := 0; i < len(ops); i++ {
		if ops[i] == simWide {
			i += 2
		}
		if i+1 >= next && i+1 < len(ops) {
			ends = append(ends, i+1)
			next = i + 1 + every
		}
	}
	return append(ends, len(ops))
}

// segmentEnds cuts a log of n entries into segments of every entries.
func segmentEnds(n, every int) []int {
	var ends []int
	for hi := every; hi < n; hi += every {
		ends = append(ends, hi)
	}
	return append(ends, n)
}

func replayPTB(p *device.PTB, ops []bool) {
	for _, alloc := range ops {
		if alloc {
			p.Alloc()
		} else {
			p.Release()
		}
	}
}

func replayDevTLB(c *tlb.Cache, ops []cacheOp) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opLookup:
			c.Lookup(key(op.sid, op.iova, op.shift))
		case opFill:
			c.Insert(tlb.Entry{Key: key(op.sid, op.iova, op.shift), PageShift: op.shift})
		case opInvalidate:
			c.Invalidate(key(op.sid, op.iova, op.shift))
		case opInvalidateSID:
			c.InvalidateSID(op.sid)
		case opFlush:
			c.Flush()
		}
	}
}

// replayPrefetch drives the Prefetch Unit. fills[k] holds the entries
// the chipset replay translated for prefetch walk k.
func replayPrefetch(u *device.PrefetchUnit, ops []pfOp, fills [][]tlb.Entry) {
	pred := u.Predictor()
	for i := range ops {
		op := &ops[i]
		sid := mem.SID(op.sid)
		switch op.kind {
		case opObserve:
			pred.Observe(sid)
		case opLookup:
			u.Lookup(key(op.sid, op.arg, op.shift))
		case opShould:
			u.ShouldPrefetch(sid)
		case opComplete:
			u.Complete(sid, fills[op.arg>>32], int(int32(uint32(op.arg))))
		case opAbort:
			u.Abort(sid)
		case opInvalidate:
			u.Invalidate(sid, op.arg, op.shift)
		case opInvalidateSID:
			u.InvalidateSID(sid)
		case opFlush:
			u.FlushAll()
		}
	}
}

// memWalk is one memo-miss nested walk: a full walk (start 0) or one
// resumed from a page-walk-cache hit at guest level start.
type memWalk struct {
	nt    *mem.NestedTable
	iova  uint64
	start int
}

// mmuCheck collects what the verifying chipset replay learns: the
// prefetch fills, the memo-miss walks, and the first access count that
// differs from the live walk.
type mmuCheck struct {
	fills    [][]tlb.Entry
	walks    []memWalk
	table    func(mem.SID) (*mem.NestedTable, error)
	mismatch error
}

// note records one verifying translation: a memo miss is a real nested
// walk for the mem replay, and a demand translation must charge the
// accesses the live walk reported.
func (chk *mmuCheck) note(missesBefore, missesAfter uint64, sid mem.SID, iova uint64, res iommu.Result, err error, live int) {
	if err == nil && missesAfter != missesBefore {
		nt, terr := chk.table(sid)
		if terr != nil {
			if chk.mismatch == nil {
				chk.mismatch = terr
			}
			return
		}
		start := 0 // full walk
		switch res.PWCLevel {
		case 2:
			start = 1
		case 3:
			start = 2
		}
		chk.walks = append(chk.walks, memWalk{nt: nt, iova: iova, start: start})
	}
	if live >= 0 && chk.mismatch == nil && (err != nil || res.MemAccesses != live) {
		chk.mismatch = fmt.Errorf("translate SID %d iova %#x: %d accesses (%v), live walk made %d",
			sid, iova, res.MemAccesses, err, live)
	}
}

// replayMMU drives the chipset the way the chain's chipset stage and
// history reader do. degree is the prefetch unit's history-read width;
// chk is nil on timed passes.
func replayMMU(u *iommu.IOMMU, ops []mmuOp, degree int, chk *mmuCheck, s *mmuScratch) {
	var misses uint64
	for i := range ops {
		op := &ops[i]
		sid := mem.SID(op.sid)
		switch op.kind {
		case opTranslate:
			if chk != nil {
				misses = u.MemoStats().Misses
			}
			res, err := u.Translate(sid, op.iova, op.shift, true)
			if chk != nil {
				chk.note(misses, u.MemoStats().Misses, sid, op.iova, res, err, int(op.n))
			}
		case opPrefetchWalk:
			s.recent = u.History().AppendRecent(s.recent[:0], sid, degree)
			s.entries = s.entries[:0]
			for _, h := range s.recent {
				if chk != nil {
					misses = u.MemoStats().Misses
				}
				res, err := u.Translate(sid, h.IOVA, h.PageShift, false)
				if chk != nil {
					chk.note(misses, u.MemoStats().Misses, sid, h.IOVA, res, err, -1)
				}
				if err != nil {
					continue
				}
				s.entries = append(s.entries, tlb.Entry{
					Key:       iommu.PageKey(sid, h.IOVA, h.PageShift),
					Value:     res.HPA &^ (uint64(1)<<h.PageShift - 1),
					PageShift: h.PageShift,
				})
			}
			if chk != nil {
				chk.fills = append(chk.fills, append([]tlb.Entry(nil), s.entries...))
			}
		case opInvalidate:
			u.Invalidate(sid, op.iova, op.shift)
		case opInvalidateSID:
			u.InvalidateSID(sid)
		case opFlush:
			u.FlushAll()
		}
	}
}

// mmuScratch holds the buffers the chipset replay reuses from call to
// call, as the history reader reuses its own.
type mmuScratch struct {
	recent  []iommu.HistoryEntry
	entries []tlb.Entry
}

// replayMem repeats the memo-miss walks through the nested tables with
// an access buffer reused from call to call, as the chipset does.
func replayMem(walks []memWalk, buf *[]mem.NestedAccess) {
	for _, w := range walks {
		var res mem.NestedResult
		if w.start == 0 {
			res, _ = w.nt.WalkInto(w.iova, (*buf)[:0])
		} else if tbl, err := w.nt.TableHPA(w.iova, w.start); err == nil {
			res, _ = w.nt.WalkFromInto(w.iova, w.start, tbl, (*buf)[:0])
		}
		if res.Accesses != nil {
			*buf = res.Accesses[:0]
		}
	}
}

// tableSource builds nested tables for the mem replay from the workload's
// profiles. Tenants of one class whose SIDs share a ring slot have
// identical tables, so one table per (class, slot) serves them all.
func tableSource(meta trace.Meta, levels int) func(mem.SID) (*mem.NestedTable, error) {
	if levels == 0 {
		levels = mem.Levels
	}
	host := mem.NewSpace("host", 0x1_0000_0000, 0)
	classes := meta.Classes
	if len(classes) == 0 {
		classes = []trace.TenantClass{{Profile: meta.Profile, Tenants: meta.Tenants}}
	}
	built := map[[2]int]*mem.NestedTable{}
	return func(sid mem.SID) (*mem.NestedTable, error) {
		ci, lo := 0, 1
		for ci < len(classes)-1 && int(sid) >= lo+classes[ci].Tenants {
			lo += classes[ci].Tenants
			ci++
		}
		k := [2]int{ci, int(sid) % workload.RingSlots}
		if nt := built[k]; nt != nil {
			return nt, nil
		}
		as, err := workload.BuildAddressSpaceLevels(classes[ci].Profile, sid, host, nil, levels)
		if err != nil {
			return nil, err
		}
		built[k] = as.Nested
		return as.Nested, nil
	}
}

// within reports whether a replayed count is within 1% of the live one.
func within(replayed, live uint64) bool {
	return math.Abs(float64(replayed)-float64(live)) <= 0.01*float64(live)
}
