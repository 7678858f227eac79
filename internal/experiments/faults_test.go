package experiments

import (
	"strconv"
	"testing"
)

// TestExtFaultsSignal pins the invalidation sweep's two properties: the
// table is deterministic (plans derive only from seed and measured
// horizon), and scripted invalidations monotonically cost bandwidth in
// the designs that have hits to lose.
func TestExtFaultsSignal(t *testing.T) {
	a, err := ExtFaults(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtFaults(quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("ExtFaults is not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	clean, worst := a.Rows[0], a.Rows[len(a.Rows)-1]
	for col := 1; col < len(a.Columns); col++ {
		c, w := parseGbps(t, clean[col]), parseGbps(t, worst[col])
		if w > c {
			t.Errorf("%s: bandwidth rose from %.2f to %.2f under max invalidation rate",
				a.Columns[col], c, w)
		}
	}
	// Partitioning without latency hiding pays for every shootdown.
	c, w := parseGbps(t, clean[4]), parseGbps(t, worst[4])
	if w >= c {
		t.Errorf("part shootdown: %.2f -> %.2f, want a strict bandwidth loss", c, w)
	}
}

// TestExtChurnSignal pins the churn sweep: teardown/re-attach cycles
// force extra walks (the flushed tenant restarts cold) and cost the
// Base design bandwidth.
func TestExtChurnSignal(t *testing.T) {
	tbl, err := ExtChurn(quick())
	if err != nil {
		t.Fatal(err)
	}
	clean, worst := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	walks := func(row []string) int {
		n, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("walks cell %q: %v", row[5], err)
		}
		return n
	}
	if w0, w1 := walks(clean), walks(worst); w1 <= w0 {
		t.Errorf("churn did not force extra walks: %d -> %d", w0, w1)
	}
	if b0, b1 := parseGbps(t, clean[1]), parseGbps(t, worst[1]); b1 >= b0 {
		t.Errorf("Base bandwidth did not drop under churn: %.2f -> %.2f", b0, b1)
	}
}
