package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hypertrio/internal/workload"
)

// sequenceDigest hashes a packet sequence and its tenant accounting in a
// fixed little-endian layout.
func sequenceDigest(pkts []workload.Packet, stats []TenantStat) string {
	h := sha256.New()
	var rec [35]byte
	for _, p := range pkts {
		binary.LittleEndian.PutUint16(rec[0:], uint16(p.SID))
		binary.LittleEndian.PutUint64(rec[2:], p.Ring)
		binary.LittleEndian.PutUint64(rec[10:], p.Data)
		binary.LittleEndian.PutUint64(rec[18:], p.Mailbox)
		binary.LittleEndian.PutUint64(rec[26:], p.UnmapIOVA)
		rec[34] = p.UnmapShift
		h.Write(rec[:])
	}
	for _, s := range stats {
		var st [26]byte
		binary.LittleEndian.PutUint16(st[0:], uint16(s.SID))
		binary.LittleEndian.PutUint64(st[2:], uint64(s.Budget))
		binary.LittleEndian.PutUint64(st[10:], uint64(s.Consumed))
		binary.LittleEndian.PutUint64(st[18:], uint64(s.Packets))
		h.Write(st[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSequenceDigests pins the interleaved packet sequence (and tenant
// stats) of uniform and weighted constructions under every arbitration
// the paper evaluates. Weighted random arbitration is exercised by no
// committed scenario, so this is its only exact pin.
func TestSequenceDigests(t *testing.T) {
	uniform := func(iv Interleave) Config {
		return Config{Benchmark: workload.Websearch, Tenants: 9, Interleave: iv, Seed: 99, Scale: 0.001}
	}
	mix := func(iv Interleave) MixConfig {
		c := mixTwoClass()
		c.Interleave = iv
		return c
	}
	cases := []struct {
		name  string
		build func() (*Trace, error)
		want  string
	}{
		{"uniform RR1", func() (*Trace, error) { return Construct(uniform(RR1)) }, "665532421a5e931ccfe9a25e6411402e5455c7efd36805eac2fc21ffab950e65"},
		{"uniform RR4", func() (*Trace, error) { return Construct(uniform(RR4)) }, "e56d77e3a51413a49277fef672493d8d979916b04ee827757bf1f849107d7181"},
		{"uniform RAND1", func() (*Trace, error) { return Construct(uniform(RAND1)) }, "df39c8d1813c788cc4f39f3efe7c02f6e7fdf84a0871fa4b0603b12783293b1f"},
		{"mix RR1", func() (*Trace, error) { return ConstructMix(mix(RR1)) }, "3f2087a6c2abd554ba4f5e84928f7dfc33cc73bcc688b4d21af64b7864135d4a"},
		{"mix RR4", func() (*Trace, error) { return ConstructMix(mix(RR4)) }, "09b14f051a546826814a3539d659462afdcc184fea195423ee5d695e7abe54fb"},
		{"mix RAND1", func() (*Trace, error) { return ConstructMix(mix(RAND1)) }, "846510c3b90fc7467b7322d924577bb9b03a93b0bce3e5013be838729dddc1ee"},
	}
	for _, c := range cases {
		tr, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sequenceDigest(tr.Packets, tr.Stats); got != c.want {
			t.Errorf("%s: digest %s, want %s (%d packets)", c.name, got, c.want, len(tr.Packets))
		}
	}
}
