package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"adaptmirror/internal/vclock"
)

// staleness is the mirror update delay a thin client sees: at instant
// at (unix ns), the age of the oldest event the harness had already
// sent that anchor does not cover, or 0 when the anchor covers every
// event sent by then. sent[s][k] is the send instant of stream s's
// (k+1)th event, 0 while unsent, and born[s][k] the instant its age
// counts from. Component s of the anchor counts the stream-s events
// the site has applied, so the first uncovered event of stream s is
// number anchor[s].
func staleness(anchor vclock.VC, sent, born [][]int64, at int64) time.Duration {
	var worst time.Duration
	for s, times := range sent {
		k := anchor.At(s)
		if k >= uint64(len(times)) {
			continue
		}
		if t := times[k]; t == 0 || t > at {
			continue
		}
		if age := time.Duration(at - born[s][k]); age > worst {
			worst = age
		}
	}
	return worst
}

// tailQuantile picks the highest whole percentile, at most want, that
// leaves at least ten of n samples beyond it, so a reported tail is
// never a single outlier. Below twenty samples it falls back to the
// median.
func tailQuantile(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	q := math.Floor(100*(1-10/float64(n))) / 100
	if q > want {
		q = want
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is a sample set's median and tail, with the tail's actual
// quantile and the sample count.
type summary struct {
	n         int
	p50, tail float64
	tailQ     float64
}

// summarize sorts xs in place and reports its median and the tail
// quantile tailQuantile allows, capped at want.
func summarize(xs []float64, want float64) summary {
	sort.Float64s(xs)
	q := tailQuantile(len(xs), want)
	return summary{n: len(xs), p50: quantile(xs, 0.5), tail: quantile(xs, q), tailQ: q}
}

// tailGroup is the sample count a tail percentile is read from: a
// run's cycles are pooled, in order, into groups of at least this many.
const tailGroup = 1000

// summarizeCycles pools a run's cycles, in order, into groups holding
// at least tailGroup samples each and reports the median over the
// groups of each group's median and tail, so one cycle that hit a
// stall does not set the run's figures. With fewer than 2*tailGroup
// samples the pooled figures are reported.
func summarizeCycles(perCycle [][]float64, want float64) summary {
	var all, cur []float64
	var groups [][]float64
	for _, xs := range perCycle {
		all = append(all, xs...)
		cur = append(cur, xs...)
		if len(cur) >= tailGroup {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) > 0 {
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	s := summarize(all, want)
	if len(groups) < 2 {
		return s
	}
	var p50s, tails []float64
	for _, g := range groups {
		gs := summarize(g, want)
		p50s = append(p50s, gs.p50)
		tails = append(tails, gs.tail)
		s.tailQ = math.Min(s.tailQ, gs.tailQ)
	}
	s.p50, s.tail = median(p50s), median(tails)
	return s
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// promSeries is one scrape of a Prometheus text exposition, keyed by
// the series as printed: `name` or `name{label="v",...}`.
type promSeries map[string]float64

// parseProm reads the Prometheus text format: comment lines are
// skipped, and each sample line is a series, a value and an optional
// timestamp.
func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the series ends at the
		// closing brace when there is one.
		end := strings.IndexByte(line, ' ')
		if brace := strings.IndexByte(line, '{'); brace >= 0 && (end < 0 || brace < end) {
			close := strings.LastIndexByte(line, '}')
			if close < brace {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			end = close + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of the named metric, whatever its labels.
func (p promSeries) sum(name string) float64 {
	var total float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// max is the largest value among the named metric's series.
func (p promSeries) max(name string) float64 {
	m := 0.0
	for k, v := range p {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > m {
			m = v
		}
	}
	return m
}
