// Package obs is the observability layer: a process-wide metrics
// registry with Prometheus text-format export, an event-lifecycle
// tracer that decomposes the paper's "update delay" into per-stage
// latencies, and an audit log recording every adaptation decision with
// the monitored-variable values that caused it. Each site (central or
// mirror) owns one Registry; the HTTP front exports it at /metrics.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptmirror/internal/metrics"
)

// Label is one metric label pair.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind is the Prometheus family type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindSummary
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// series is one labeled instrument inside a family. Exactly one of the
// instrument fields is set.
type series struct {
	labels  []Label // sorted by key
	key     string  // canonical rendering of labels (series identity)
	counter *metrics.Counter
	gauge   *metrics.Gauge
	hist    *metrics.Histogram
	rawHist bool           // hist samples are dimensionless values, not durations
	fn      func() float64 // CounterFunc/GaugeFunc
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	typed  bool // kind has been fixed by an instrument registration
	series []*series
	byKey  map[string]*series
}

// Registry is a process-wide set of named, labeled instruments. All
// methods are safe for concurrent use, and every method is a no-op (or
// returns a fresh unregistered instrument) on a nil receiver, so
// instrumented code never needs nil checks.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// canonLabels sorts a copy of ls by key and renders the series
// identity string.
func canonLabels(ls []Label) ([]Label, string) {
	if len(ls) == 0 {
		return nil, ""
	}
	out := make([]Label, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	var b strings.Builder
	for i, l := range out {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return out, b.String()
}

// with runs set, under the registry lock, on the series for (name, ls)
// in a family of kind k, creating it if needed. set is not called when
// the registry is nil or the name is already registered with a
// different kind.
func (r *Registry) with(name string, k kind, ls []Label, set func(*series)) {
	if r == nil {
		return
	}
	labels, key := canonLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if !f.typed {
		f.kind, f.typed = k, true
	} else if f.kind != k {
		return
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	set(s)
}

// Counter returns (creating if needed) the counter named name with the
// given labels. On a nil registry it returns a fresh unregistered
// counter.
func (r *Registry) Counter(name string, ls ...Label) *metrics.Counter {
	c := &metrics.Counter{}
	r.with(name, kindCounter, ls, func(s *series) {
		if s.counter == nil {
			s.counter, s.fn = c, nil
		}
		c = s.counter
	})
	return c
}

// Gauge returns (creating if needed) the gauge named name with the
// given labels. On a nil registry it returns a fresh unregistered
// gauge.
func (r *Registry) Gauge(name string, ls ...Label) *metrics.Gauge {
	g := &metrics.Gauge{}
	r.with(name, kindGauge, ls, func(s *series) {
		if s.gauge == nil {
			s.gauge, s.fn = g, nil
		}
		g = s.gauge
	})
	return g
}

// Histogram returns (creating if needed) the histogram named name with
// the given labels, exported as a Prometheus summary. On a nil
// registry it returns a fresh unregistered histogram.
func (r *Registry) Histogram(name string, ls ...Label) *metrics.Histogram {
	return r.histogram(name, ls, false)
}

// ValueHistogram returns (creating if needed) a histogram whose
// samples are dimensionless values rather than durations: callers
// record a value n as time.Duration(n), and the summary renders the
// raw numbers instead of seconds. Size-style distributions (bytes per
// frame, events per batch) use it. On a nil registry it returns a
// fresh unregistered histogram.
func (r *Registry) ValueHistogram(name string, ls ...Label) *metrics.Histogram {
	return r.histogram(name, ls, true)
}

func (r *Registry) histogram(name string, ls []Label, raw bool) *metrics.Histogram {
	var h *metrics.Histogram
	r.with(name, kindSummary, ls, func(s *series) {
		if s.hist == nil {
			s.hist = metrics.NewHistogram(0)
		}
		s.rawHist = s.rawHist || raw
		h = s.hist
	})
	if h == nil {
		h = metrics.NewHistogram(0)
	}
	return h
}

// RegisterCounter exposes an existing counter under (name, labels).
func (r *Registry) RegisterCounter(name string, c *metrics.Counter, ls ...Label) {
	r.with(name, kindCounter, ls, func(s *series) { s.counter, s.fn = c, nil })
}

// RegisterHistogram exposes an existing histogram under (name,
// labels), exported as a Prometheus summary.
func (r *Registry) RegisterHistogram(name string, h *metrics.Histogram, ls ...Label) {
	r.with(name, kindSummary, ls, func(s *series) { s.hist = h })
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time (for instruments that already live elsewhere as atomics).
// fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name string, fn func() float64, ls ...Label) {
	r.with(name, kindCounter, ls, func(s *series) { s.fn, s.counter = fn, nil })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name string, fn func() float64, ls ...Label) {
	r.with(name, kindGauge, ls, func(s *series) { s.fn, s.gauge = fn, nil })
}

// Describe attaches HELP text to a family. The family's kind stays
// open until the first instrument registration fixes it.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
		return
	}
	r.families[name] = &family{name: name, help: help, byKey: make(map[string]*series)}
}

// summaryQuantiles are the quantiles exported for histogram families.
var summaryQuantiles = []float64{50, 90, 99}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// renderLabels renders a label set (plus optional extra pairs) as
// {k="v",...}, or "" when empty.
func renderLabels(ls []Label, extra ...Label) string {
	if len(ls)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for _, l := range ls {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
		n++
	}
	for _, l := range extra {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
		n++
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered family in the Prometheus
// text exposition format (version 0.0.4): families sorted by name,
// series by label set, histograms as summaries with q0.5/q0.9/q0.99
// plus _sum (seconds) and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		// Snapshot the series under the lock (registration may swap
		// their instruments); instrument reads are individually
		// synchronized by the instruments themselves.
		r.mu.Lock()
		srs := make([]series, len(f.series))
		for i, s := range f.series {
			srs[i] = *s
		}
		help := f.help
		k := f.kind
		r.mu.Unlock()
		if len(srs) == 0 {
			continue
		}
		sort.Slice(srs, func(i, j int) bool { return srs[i].key < srs[j].key })

		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, k); err != nil {
			return err
		}
		for i := range srs {
			s := &srs[i]
			var err error
			switch {
			case s.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.fn()))
			case s.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.counter.Value())
			case s.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.gauge.Value())
			case s.hist != nil:
				err = writeSummary(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSummary renders one histogram series as a Prometheus summary —
// in seconds for duration histograms, as raw values for value
// histograms (ValueHistogram).
func writeSummary(w io.Writer, name string, s *series) error {
	val := func(d time.Duration) float64 {
		if s.rawHist {
			return float64(d)
		}
		return d.Seconds()
	}
	qs := s.hist.Quantiles(summaryQuantiles...)
	for i, p := range summaryQuantiles {
		q := L("quantile", formatFloat(p/100))
		if _, err := fmt.Fprintf(w, "%s%s %s\n",
			name, renderLabels(s.labels, q), formatFloat(val(qs[i]))); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, renderLabels(s.labels), formatFloat(val(s.hist.Sum()))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), s.hist.Count())
	return err
}

// secondsFunc adapts a DurationCounter-style accessor into a
// CounterFunc reading seconds.
func secondsFunc(v func() time.Duration) func() float64 {
	return func() float64 { return v().Seconds() }
}

// RegisterDurationCounter exposes a cumulative duration counter as a
// seconds-valued counter family.
func (r *Registry) RegisterDurationCounter(name string, d *metrics.DurationCounter, ls ...Label) {
	r.CounterFunc(name, secondsFunc(d.Value), ls...)
}
