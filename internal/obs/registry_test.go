package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"adaptmirror/internal/metrics"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("link_sent_total", L("mirror", "0"))
	c2 := r.Counter("link_sent_total", L("mirror", "0"))
	if c1 != c2 {
		t.Fatal("same (name, labels) should return the same counter")
	}
	c3 := r.Counter("link_sent_total", L("mirror", "1"))
	if c1 == c3 {
		t.Fatal("distinct label sets should return distinct counters")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE "); n != 1 {
		t.Fatalf("%d families rendered, want 1:\n%s", n, b.String())
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("g", L("x", "1"), L("y", "2"))
	b := r.Gauge("g", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order should not affect series identity")
	}
}

func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m")
	c.Inc()
	g := r.Gauge("m") // conflicting kind: must return unregistered instrument
	g.Set(42)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "42") {
		t.Fatalf("conflicting-kind gauge leaked into output:\n%s", b.String())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Record(time.Millisecond)
	r.CounterFunc("cf", func() float64 { return 1 })
	r.GaugeFunc("gf", func() float64 { return 1 })
	r.RegisterCounter("rc", &metrics.Counter{})
	r.Describe("c", "help")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q, want nothing", b.String())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Describe("link_sent_total", "Events sent per mirror link.")
	r.Counter("link_sent_total", L("mirror", "0")).Add(5)
	r.Counter("link_sent_total", L("mirror", "1")).Add(7)
	r.Gauge("queue_depth", L("site", "central")).Set(3)
	r.Histogram("update_delay_seconds").Record(10 * time.Millisecond)
	r.Histogram("update_delay_seconds").Record(20 * time.Millisecond)
	r.GaugeFunc("uptime", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP link_sent_total Events sent per mirror link.",
		"# TYPE link_sent_total counter",
		`link_sent_total{mirror="0"} 5`,
		`link_sent_total{mirror="1"} 7`,
		"# TYPE queue_depth gauge",
		`queue_depth{site="central"} 3`,
		"# TYPE update_delay_seconds summary",
		`update_delay_seconds{quantile="0.5"}`,
		`update_delay_seconds{quantile="0.99"}`,
		"update_delay_seconds_sum 0.03",
		"update_delay_seconds_count 2",
		"uptime 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("output must end with a newline")
	}
	// The exposition we write must pass our own lint.
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Describe("weird", "help with \\ and\nnewline")
	r.Counter("weird", L("path", `a\b"c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `path="a\\b\"c\n"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `help with \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

func TestRegisterExisting(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(9)
	r.RegisterCounter("pre_existing_total", &c, L("site", "m1"))
	h := metrics.NewHistogram(8)
	h.Record(time.Second)
	r.RegisterHistogram("pre_hist_seconds", h)
	var d metrics.DurationCounter
	d.Add(2 * time.Second)
	r.RegisterDurationCounter("stall_seconds_total", &d, L("mirror", "0"))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pre_existing_total{site="m1"} 9`,
		"pre_hist_seconds_count 1",
		`stall_seconds_total{mirror="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c", L("w", "x")).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Record(time.Microsecond)
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", L("w", "x")).Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
}
