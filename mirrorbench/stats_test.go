package main

import (
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/cluster"
	"adaptmirror/internal/vclock"
)

func TestStalenessMultiStreamAnchor(t *testing.T) {
	ms := int64(time.Millisecond)
	// Stream 0 sent three events at 10, 20, 30 ms; stream 1 sent two
	// at 5 and 25 ms and has a third not yet sent.
	sent := [][]int64{{10 * ms, 20 * ms, 30 * ms}, {5 * ms, 25 * ms, 0}}
	cases := []struct {
		name   string
		anchor vclock.VC
		at     int64
		want   time.Duration
	}{
		{"covers everything sent", vclock.VC{3, 2}, 40 * ms, 0},
		{"unsent events do not count", vclock.VC{3, 2}, 100 * ms, 0},
		{"oldest gap wins across streams", vclock.VC{1, 1}, 40 * ms, 20 * time.Millisecond},
		{"other stream holds the oldest gap", vclock.VC{2, 0}, 40 * ms, 35 * time.Millisecond},
		{"events sent after the instant are ignored", vclock.VC{2, 1}, 28 * ms, 3 * time.Millisecond},
		{"empty anchor", nil, 40 * ms, 35 * time.Millisecond},
	}
	for _, c := range cases {
		if got := staleness(c.anchor, sent, sent, c.at); got != c.want {
			t.Errorf("%s: staleness(%v) = %v, want %v", c.name, c.anchor, got, c.want)
		}
	}
	// Ages count from each event's due time when it has one; whether
	// an event counts still depends on when it was sent.
	due := [][]int64{{9 * ms, 19 * ms, 29 * ms}, {4 * ms, 24 * ms, 34 * ms}}
	if got := staleness(vclock.VC{1, 2}, sent, due, 28*ms); got != 9*time.Millisecond {
		t.Errorf("due-time age = %v, want 9ms", got)
	}
}

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, // capped at the asked-for tail
		{1000, 0.99}, // exactly ten beyond p99
		{999, 0.98},  // 9.99 beyond p99 is too few
		{500, 0.98},
		{200, 0.95},
		{100, 0.90},
		{19, 0.5}, // too few for any tail
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n, 0.99); c.n >= 20 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, q)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3}, 0.99)
	if s.p50 != 3 || s.tail != 3 || s.n != 5 {
		t.Errorf("summarize of five samples = %+v, want median 3 as both figures", s)
	}
}

func TestReferenceRejectsCorruptedInit(t *testing.T) {
	events := cluster.BuildEvents(cluster.Options{
		Flights: 20, UpdatesPerFlight: 30, EventSize: 256, WithDelta: true, Passengers: 5, Seed: 3,
	})
	ref := buildReference(events, traceStreams, 0)
	if got := ref.counts.Sum(); got != uint64(len(events)) {
		t.Fatalf("reference counts %v cover %d events, want %d", ref.counts, got, len(events))
	}
	good := append([]byte(nil), ref.snapshot...)
	if err := sameBytes("init", good, ref.snapshot); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	if err := ref.checkSelective("init", good, ref.snapshot); err != nil {
		t.Fatalf("identical state rejected by the selective check: %v", err)
	}
	// One byte inside the first flight's latitude.
	bad := append([]byte(nil), ref.snapshot...)
	bad[8+4+1+3] ^= 0x40
	err := sameBytes("init", bad, ref.snapshot)
	if err == nil || !strings.Contains(err.Error(), "offset 16") {
		t.Fatalf("corrupted byte: got %v, want a mismatch at offset 16", err)
	}
	if err := ref.checkSelective("init", bad, ref.snapshot); err == nil {
		t.Fatal("selective check accepted a position that is not among the flight's last ten")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP link_sent_total Events sent.
# TYPE link_sent_total counter
link_sent_total{mirror="0"} 45600
link_sent_total{mirror="1"} 9600
checkpoint_trimmed_bytes_total{site="central"} 1.1645952e+07
http_requests_total 12
odd_label{path="a b"} 3 1700000000000
pipeline_stage_seconds{stage="apply",quantile="0.99"} +Inf
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("link_sent_total"); got != 55200 {
		t.Errorf("sum(link_sent_total) = %v, want 55200", got)
	}
	if got := p.max("link_sent_total"); got != 45600 {
		t.Errorf("max(link_sent_total) = %v, want 45600", got)
	}
	if got := p[`checkpoint_trimmed_bytes_total{site="central"}`]; got != 11645952 {
		t.Errorf("exponent value = %v", got)
	}
	if got := p.sum("http_requests_total"); got != 12 {
		t.Errorf("unlabelled series = %v, want 12", got)
	}
	if got := p[`odd_label{path="a b"}`]; got != 3 {
		t.Errorf("label with a space and a timestamp = %v, want 3", got)
	}
	if got := p.sum("http_requests"); got != 0 {
		t.Errorf("a name prefix matched another metric: %v", got)
	}
	for _, bad := range []string{"no_value\n", `broken{a="1" 2` + "\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}
