package stats

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("title", "a", "bb", "ccc")
	tb.AddRow("1", "22", "333")
	tb.AddRow("x")
	out := tb.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "ccc") {
		t.Fatalf("header wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator wrong: %q", lines[2])
	}
	// Short row padded: no panic, row present.
	if !strings.HasPrefix(lines[4], "x") {
		t.Fatalf("padded row wrong: %q", lines[4])
	}
}

func TestTableColumnWidths(t *testing.T) {
	tb := NewTable("", "col")
	tb.AddRow("longervalue")
	lines := strings.Split(tb.String(), "\n")
	if len(lines[0]) < len("longervalue") {
		t.Fatalf("header not widened: %q", lines[0])
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", `va"l,ue`)
	csv := tb.CSV()
	want := "a,b\n1,\"va\"\"l,ue\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestGbps(t *testing.T) {
	if g := Gbps(199.44e9); g != "199.44" {
		t.Fatalf("Gbps = %q", g)
	}
	if g := Gbps(0); g != "0.00" {
		t.Fatalf("Gbps(0) = %q", g)
	}
}

func TestPercent(t *testing.T) {
	if p := Percent(0.4312); p != "43.1%" {
		t.Fatalf("Percent = %q", p)
	}
}

func TestCount(t *testing.T) {
	cases := map[uint64]string{
		0:          "0",
		999:        "999",
		1000:       "1,000",
		69712894:   "69,712,894",
		1234567890: "1,234,567,890",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}
