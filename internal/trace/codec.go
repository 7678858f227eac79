package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hypertrio/internal/mem"
	"hypertrio/internal/workload"
)

// The HSIO record codec behind Write and Read: the 4-byte magic, a
// uvarint version, then varint fields. A packet record is its ring offset
// from workload.RingIOVA, data and unmap (all uvarints), then the unmap
// shift byte only when unmap != 0. The mailbox is never stored; the
// decoder derives it from the ring page.

// encoder writes the record layout. Errors are sticky: after the first
// failed write every call is a no-op and Flush reports the error.
type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// newEncoder starts an HSIO stream with its magic and version.
func newEncoder(w io.Writer) *encoder {
	e := &encoder{w: bufio.NewWriter(w)}
	_, e.err = e.w.WriteString(magic)
	e.Uvarint(version)
	return e
}

func (e *encoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// Uvarint writes an unsigned varint.
func (e *encoder) Uvarint(v uint64) { e.write(e.buf[:binary.PutUvarint(e.buf[:], v)]) }

// Varint writes a zigzag varint.
func (e *encoder) Varint(v int64) { e.write(e.buf[:binary.PutVarint(e.buf[:], v)]) }

// Byte writes one raw byte.
func (e *encoder) Byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

// Fixed64 writes a little-endian uint64.
func (e *encoder) Fixed64(v uint64) { e.write(binary.LittleEndian.AppendUint64(e.buf[:0], v)) }

// Packet writes one packet record (its SID is the caller's to encode).
func (e *encoder) Packet(p workload.Packet) {
	e.Uvarint(p.Ring - workload.RingIOVA)
	e.Uvarint(p.Data)
	e.Uvarint(p.UnmapIOVA)
	if p.UnmapIOVA != 0 {
		e.Byte(p.UnmapShift)
	}
}

// Flush writes out buffered records and returns the first error.
func (e *encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// decoder reads the record layout. Errors are sticky: after the first
// failed read every call returns zero and Err reports the error.
type decoder struct {
	r   *bufio.Reader
	err error
}

// newDecoder checks an HSIO stream's magic and version.
func newDecoder(r io.Reader) (*decoder, error) {
	d := &decoder{r: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(d.r, head); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("bad magic %q", head)
	}
	if v := d.Uvarint(); d.err != nil {
		return nil, d.err
	} else if v != version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	return d, nil
}

// Err returns the first read error.
func (d *decoder) Err() error { return d.err }

// Uvarint reads an unsigned varint.
func (d *decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

// Varint reads a zigzag varint.
func (d *decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.err = err
	return v
}

// Byte reads one raw byte.
func (d *decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = err
	return b
}

// Fixed64 reads a little-endian uint64.
func (d *decoder) Fixed64() uint64 {
	var b [8]byte
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b[:])
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Packet reads one packet record and stamps it with sid.
func (d *decoder) Packet(sid mem.SID) workload.Packet {
	ring := workload.RingIOVA + d.Uvarint()
	p := workload.Packet{
		SID:       sid,
		Ring:      ring,
		Data:      d.Uvarint(),
		Mailbox:   ring&^uint64(mem.PageSize-1) + mem.PageSize,
		UnmapIOVA: d.Uvarint(),
	}
	if p.UnmapIOVA != 0 {
		p.UnmapShift = d.Byte()
	}
	return p
}

// records reads up to n records with read, stopping at the first error.
// The slice grows as records arrive rather than trusting n: a corrupt or
// hostile header can declare 2^31 records while the body holds none,
// and an up-front make() of that size would allocate gigabytes before
// the first read error surfaces.
func records[T any](d *decoder, n uint64, read func(*decoder) T) []T {
	out := make([]T, 0, min(n, 4096))
	for i := uint64(0); i < n && d.err == nil; i++ {
		r := read(d)
		if d.err == nil {
			out = append(out, r)
		}
	}
	return out
}
