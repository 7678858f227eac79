package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hypertrio/internal/mem"
	"hypertrio/internal/sim"
	"hypertrio/internal/workload"
)

func fullPlan() *Plan {
	return &Plan{
		Seed:  7,
		Retry: RetryPolicy{MaxRetries: 2, Backoff: 250 * sim.Nanosecond, BackoffMax: 4 * sim.Microsecond},
		Events: []Event{
			{At: sim.Time(1 * sim.Microsecond), Kind: InvalidatePage, SID: 3, IOVA: workload.RingPageFor(3), Shift: 12},
			{At: sim.Time(2 * sim.Microsecond), Kind: Remap, SID: 3, IOVA: workload.RingPageFor(3), Shift: 12, Silent: true},
			{At: sim.Time(3 * sim.Microsecond), Kind: WalkerFault, N: 2},
			{At: sim.Time(3 * sim.Microsecond), Kind: WalkerFault, Dur: 500 * sim.Nanosecond},
			{At: sim.Time(4 * sim.Microsecond), Kind: InvalidateTenant, SID: 5},
			{At: sim.Time(5 * sim.Microsecond), Kind: Detach, SID: 2},
			{At: sim.Time(6 * sim.Microsecond), Kind: Attach, SID: 2},
			{At: sim.Time(7 * sim.Microsecond), Kind: FlushAll},
		},
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := fullPlan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), PlanSchema) {
		t.Fatalf("encoded plan lacks schema header:\n%s", buf.String())
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, p)
	}
}

func TestReadPlanRejects(t *testing.T) {
	cases := map[string]string{
		"bad schema":       `{"schema":"nope/9","events":[]}`,
		"unknown kind":     `{"schema":"hypertrio-faultplan/1","events":[{"at_ns":1,"kind":"explode"}]}`,
		"unknown field":    `{"schema":"hypertrio-faultplan/1","events":[],"frobnicate":1}`,
		"bad iova":         `{"schema":"hypertrio-faultplan/1","events":[{"at_ns":1,"kind":"invalidate_page","sid":1,"iova":"zz","shift":12}]}`,
		"not json":         `hello`,
		"huge time":        `{"schema":"hypertrio-faultplan/1","events":[{"at_ns":4456320208626.653,"kind":"flush_all"}]}`,
		"negative dur":     `{"schema":"hypertrio-faultplan/1","events":[{"at_ns":1,"kind":"detach","sid":1,"dur_ns":-1}]}`,
		"negative backoff": `{"schema":"hypertrio-faultplan/1","retry":{"backoff_ns":-5},"events":[]}`,
		"retries past 255": `{"schema":"hypertrio-faultplan/1","retry":{"max_retries":256},"events":[]}`,
		"trailing junk":    `{"schema":"hypertrio-faultplan/1","events":[]} trailing junk`,
		"two documents":    `{"schema":"hypertrio-faultplan/1","events":[]}{"schema":"hypertrio-faultplan/1","events":[]}`,
	}
	for name, doc := range cases {
		if _, err := ReadPlan(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ReadPlan accepted %q", name, doc)
		}
	}
}

func TestPlanValidateErrors(t *testing.T) {
	cases := map[string]*Plan{
		"unknown kind": {Events: []Event{{Kind: kindCount}}},
		"negative at":  {Events: []Event{{At: -1, Kind: FlushAll}}},
		"unsorted": {Events: []Event{
			{At: 10, Kind: FlushAll}, {At: 5, Kind: FlushAll},
		}},
		"page without sid":   {Events: []Event{{Kind: InvalidatePage, IOVA: 0x1000, Shift: 12}}},
		"page with bad size": {Events: []Event{{Kind: InvalidatePage, SID: 1, IOVA: 0x1000, Shift: 13}}},
		"tenant without sid": {Events: []Event{{Kind: Detach}}},
		"negative burst":     {Events: []Event{{Kind: WalkerFault, N: -1}}},
		"negative retry":     {Retry: RetryPolicy{MaxRetries: -1}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan must validate (fault-free config): %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Errorf("kind %d: string %q parses to (%v, %v)", k, k.String(), got, err)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString accepted bogus")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	h := sim.Duration(200 * sim.Microsecond)
	a := InvalidationPlan(11, 64, 5*sim.Microsecond, h, true)
	b := InvalidationPlan(11, 64, 5*sim.Microsecond, h, true)
	if !reflect.DeepEqual(a, b) {
		t.Error("InvalidationPlan not deterministic for one seed")
	}
	c := InvalidationPlan(12, 64, 5*sim.Microsecond, h, true)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("InvalidationPlan ignores the seed")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	if want := int(h/(5*sim.Microsecond)) - 1; len(a.Events) != want {
		t.Errorf("targeted plan has %d events, want %d", len(a.Events), want)
	}
	for _, ev := range a.Events {
		if ev.Kind != InvalidatePage || ev.SID < 1 || ev.SID > 64 || ev.IOVA != workload.RingPageFor(ev.SID) {
			t.Fatalf("targeted plan event malformed: %+v", ev)
		}
	}
	broad := InvalidationPlan(11, 64, 5*sim.Microsecond, h, false)
	for _, ev := range broad.Events {
		if ev.Kind != InvalidateTenant {
			t.Fatalf("broadcast plan event malformed: %+v", ev)
		}
	}
}

func TestChurnPlanPairsDetachAttach(t *testing.T) {
	h := sim.Duration(100 * sim.Microsecond)
	p := ChurnPlan(3, 16, 10*sim.Microsecond, 2*sim.Microsecond, h)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	down := map[mem.SID]int{}
	detaches, attaches := 0, 0
	for _, ev := range p.Events {
		switch ev.Kind {
		case Detach:
			detaches++
			down[ev.SID]++
		case Attach:
			attaches++
			if down[ev.SID] == 0 {
				t.Fatalf("attach of SID %d without a preceding detach", ev.SID)
			}
			down[ev.SID]--
		default:
			t.Fatalf("unexpected kind %v in churn plan", ev.Kind)
		}
	}
	if detaches == 0 || detaches != attaches {
		t.Errorf("churn plan detaches=%d attaches=%d, want equal and nonzero", detaches, attaches)
	}
	if !reflect.DeepEqual(p, ChurnPlan(3, 16, 10*sim.Microsecond, 2*sim.Microsecond, h)) {
		t.Error("ChurnPlan not deterministic for one seed")
	}
}

func TestWalkerFaultPlan(t *testing.T) {
	p := WalkerFaultPlan(1, 10*sim.Microsecond, 55*sim.Microsecond, 3, RetryPolicy{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(p.Events))
	}
	for _, ev := range p.Events {
		if ev.Kind != WalkerFault || ev.N != 3 {
			t.Fatalf("malformed walker-fault event: %+v", ev)
		}
	}
	if p.Retry != DefaultRetryPolicy() {
		t.Errorf("zero policy should default, got %+v", p.Retry)
	}
}
