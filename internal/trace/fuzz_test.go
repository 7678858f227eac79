package trace

import (
	"strings"
	"testing"
)

// FuzzParseInterleave throws arbitrary strings at the interleaving
// parser. Anything it accepts must be the interleaving's own notation up
// to case, so no trailing junk, sign, space or leading zero gets through,
// and the notation must parse back to the same interleaving.
func FuzzParseInterleave(f *testing.F) {
	for _, s := range []string{"RR1", "rr4", "RAND1", "rand16", "RR1x", "rr4junk", "RR1.5", "RR 3", "RR+2", "RR01", "RAND-1", "RR", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		iv, err := ParseInterleave(s)
		if err != nil {
			return
		}
		if !strings.EqualFold(s, iv.String()) {
			t.Fatalf("ParseInterleave(%q) = %v, whose notation differs from the input", s, iv)
		}
		if again, err := ParseInterleave(iv.String()); err != nil || again != iv {
			t.Fatalf("ParseInterleave(%q) = %v, %v; want %v", iv.String(), again, err, iv)
		}
	})
}
