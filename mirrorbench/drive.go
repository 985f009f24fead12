package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/echo"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
	"adaptmirror/internal/workload"
)

const (
	// pollEvery is the cadence of a drain's progress polls, of the
	// completion polls on mirror0's /init, and of the /metrics checks
	// once mirror0 is covered.
	pollEvery = 5 * time.Millisecond
	// initLimit is the latency limit an /init must meet to count as
	// served; a slower one counts as failed.
	initLimit = 100 * time.Millisecond
	// lateLimit bounds how late the generator may run at p99 before
	// a run is reported invalid instead of slow.
	lateLimit = 20 * time.Millisecond
	// cycleTimeout bounds one cluster's drive, from first event to
	// every mirror finished.
	cycleTimeout = 60 * time.Second
	// sampleEvery is the traced run's /metrics sampling period.
	sampleEvery = 25 * time.Millisecond
)

// initSample is one request on the load connection to mirror0, with
// instants in unix ns.
type initSample struct {
	kind            int
	due, sent, done int64
	// applied is a progress poll's events_processed_total.
	applied float64
	// ok: status 200, the body decoded and, for /init, the limit was
	// met. anchor is the /init anchor, or for a progress poll the
	// per-stream counts of the first applied trace events.
	ok bool
	// badBody marks a 200 whose body is not a decodable snapshot.
	badBody bool
	anchor  vclock.VC
	// late is how long after it could be sent the generator sent it.
	late time.Duration
}

// cycleResult is one cluster's life: set-up, drive, checks.
type cycleResult struct {
	setup  time.Duration
	drain  time.Duration // first event submitted until every mirror finished
	accept time.Duration // first until last event accepted by the ingress link
	inits  []initSample
	// stale and latency are per-sample values in ms, +Inf when failed.
	stale, latency []float64
	feedLate       []float64 // ms, open-loop feed only
	rssKiB         []int64   // VmHWM per site: central, mirror0, mirror1
	loadConns      int
	trace          *cycleTrace
	attempted      int
	failed         int
	err            error // a failed output check
}

// cycleTrace is the traced run's view of one cycle: CPU per site over
// the drive, /metrics at its start and end, and sampled maxima.
type cycleTrace struct {
	wall                                                       time.Duration
	cpu                                                        []time.Duration
	start, end                                                 []promSeries
	maxReady, maxBackup, maxMirrorQueue, maxOutbox, maxPending float64
}

// harness holds what every cycle of a run shares.
type harness struct {
	bin    string
	wl     workloadSpec
	events []*event.Event
	ref    reference
	// streamPos[i] is trace event i's index within its stream.
	streamPos []int
	streamLen []int
	ctl       *http.Client
	rng       *rand.Rand
}

// newStreamTimes allocates a per-stream table of event instants.
func (d *harness) newStreamTimes() [][]int64 {
	sent := make([][]int64, len(d.streamLen))
	for s, n := range d.streamLen {
		sent[s] = make([]int64, n)
	}
	return sent
}

// stormSchedule draws the open-loop /init arrivals of one cycle: a
// non-homogeneous Poisson process following the storm pattern, by
// thinning a process at the pattern's peak rate.
func stormSchedule(rng *rand.Rand, p workload.Pattern, peak float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / peak
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		if rng.Float64()*peak < p.Rate(at) {
			out = append(out, at)
		}
	}
}

// runCycle launches a fresh cluster, drives the trace through it,
// checks its outputs and tears it down.
func (d *harness) runCycle(traced bool) (cycleResult, error) {
	var c *deployment
	var setup time.Duration
	var err error
	// A port reserved for a site can be taken in the instant between
	// its release and the site's bind; retry on fresh ports.
	// Collect the previous cycle's garbage now rather than inside the
	// timed set-up.
	runtime.GC()
	for attempt := 0; attempt < 3; attempt++ {
		if c, setup, err = startCluster(d.bin, 2, d.wl.centralArgs, d.ctl); err == nil {
			break
		}
	}
	if err != nil {
		return cycleResult{}, err
	}
	defer c.stop()
	res := cycleResult{setup: setup}
	if err := d.drive(c, traced, &res); err != nil {
		return res, fmt.Errorf("%w\n%s", err, c.logs())
	}
	for _, s := range c.sites() {
		kb, err := peakRSSKiB(s.pid())
		if err != nil {
			return res, fmt.Errorf("%s: %w", s.name, err)
		}
		res.rssKiB = append(res.rssKiB, kb)
	}
	if res.err != nil {
		res.err = fmt.Errorf("%w\n%s", res.err, c.logs())
	}
	return res, nil
}

// drive runs one cycle's load and checks against a started cluster.
// Harness faults are returned; output-check failures land in res.err.
func (d *harness) drive(c *deployment, traced bool, res *cycleResult) error {
	link, err := echo.DialSendTimeout(c.central.events, "ingress", 5*time.Second)
	if err != nil {
		return fmt.Errorf("dialing the central's ingress: %w", err)
	}
	defer link.Close()
	var dials atomic.Int32
	load := loadClient(&dials)
	defer load.CloseIdleConnections()

	var tr *cycleTrace
	var sampler sync.WaitGroup
	stopSampling := make(chan struct{})
	if traced {
		tr = &cycleTrace{}
		for _, s := range c.sites() {
			p, err := scrape(d.ctl, s)
			if err != nil {
				return err
			}
			tr.start = append(tr.start, p)
			cpu, err := procCPU(s.pid())
			if err != nil {
				return err
			}
			tr.cpu = append(tr.cpu, -cpu)
		}
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			d.sample(c, tr, stopSampling)
		}()
	}
	defer func() {
		close(stopSampling)
		sampler.Wait()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), cycleTimeout)
	defer cancel()
	var sched []time.Duration
	if d.wl.storm != nil {
		span := time.Duration(float64(len(d.events)) / d.wl.feedRate * float64(time.Second))
		sched = stormSchedule(d.rng, d.wl.storm, d.wl.stormPeak, span)
	}
	// Open-loop events age from their due time, as requests are timed
	// from theirs; drained events from when they were sent.
	sent, born := d.newStreamTimes(), d.newStreamTimes()
	if d.wl.feedRate <= 0 {
		born = sent
	}
	covered := make(chan struct{})
	finished := make(chan struct{})
	var feedErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.feedLate, feedErr = d.feed(ctx, link, t0, sent, born)
		res.accept = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		res.inits = d.load(ctx, load, c.mirrors[0], t0, sched, covered, finished)
	}()
	end, err := d.awaitFinish(ctx, c, covered)
	if traced {
		tr.wall = end.Sub(t0)
		for i, s := range c.sites() {
			cpu, cerr := procCPU(s.pid())
			if cerr != nil && err == nil {
				err = cerr
			}
			tr.cpu[i] += cpu
		}
	}
	close(finished)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err == nil {
		err = feedErr
	}
	if err != nil {
		return err
	}
	res.drain = end.Sub(t0)
	res.loadConns = int(dials.Load()) + 1 // plus the ingress link
	res.attempted = len(d.events) + len(res.inits)
	d.score(res, sent, born)

	// Output checks, on the final state of every site.
	var finals []promSeries
	for _, s := range c.sites() {
		p, err := scrape(d.ctl, s)
		if err != nil {
			return err
		}
		finals = append(finals, p)
	}
	if tr != nil {
		tr.end = finals
		res.trace = tr
	}
	if err := d.check(c, finals, res.inits); err != nil {
		res.err = err
		res.failed = res.attempted
	}
	return nil
}

// loadClient is the harness's single keep-alive HTTP connection to
// mirror0; dials counts the connections it opens.
func loadClient(dials *atomic.Int32) *http.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 10 * time.Second,
	}
}

// feed submits the trace over the ingress link: as fast as the link
// accepts it (closed loop), or with event i due at t0+i/rate (open
// loop), returning how late each open-loop event went out, in ms.
// sent receives each event's send instant, and on the open loop born
// its due instant.
func (d *harness) feed(ctx context.Context, link *echo.SendLink, t0 time.Time, sent, born [][]int64) ([]float64, error) {
	submit := func(i int) error {
		e := d.events[i]
		if err := link.Submit(e); err != nil {
			return fmt.Errorf("submitting event %d: %w", i, err)
		}
		sent[e.Stream][d.streamPos[i]] = time.Now().UnixNano()
		return nil
	}
	if d.wl.feedRate <= 0 {
		for i := range d.events {
			if err := submit(i); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	due := func(i int) time.Time {
		return t0.Add(time.Duration(float64(i) / d.wl.feedRate * float64(time.Second)))
	}
	late := make([]float64, 0, len(d.events))
	for i := 0; i < len(d.events); {
		if wait := time.Until(due(i)); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			return late, ctx.Err()
		}
		now := time.Now()
		for ; i < len(d.events) && !due(i).After(now); i++ {
			if err := submit(i); err != nil {
				return late, err
			}
			st, k := d.events[i].Stream, d.streamPos[i]
			born[st][k] = due(i).UnixNano()
			late = append(late, ms(time.Duration(sent[st][k]-born[st][k])))
		}
	}
	return late, nil
}

// Kinds of request on the load connection.
const (
	// reqInit is a client /init: storm arrivals and the completion
	// check. It yields a staleness and a latency sample.
	reqInit = iota
	// reqProgress polls mirror0's /metrics while a drain runs. Its
	// applied-event count yields a staleness sample only.
	reqProgress
	// reqProbe is a drain's post-drive /init probe of the idle mirror.
	// It yields a latency sample only.
	reqProbe
)

// probeCount and probeEvery shape a drain's post-drive /init probe.
const (
	probeCount = 300
	probeEvery = 2 * time.Millisecond
)

// load issues every request on the one load connection to mirror0,
// each timed from its due time; a request due while the previous one
// is in flight goes out when that one completes.
//
// A storm's /init arrivals follow sched (offsets from t0). A drain
// instead polls /metrics every pollEvery until mirror0 has applied
// every event the central mirrors: an /init during a saturated drain
// can wedge mirror0's apply loop (see README.md), and the drains
// measure the event path. Then /init is polled every pollEvery until
// its anchor covers the trace, which closes covered. Once finished
// closes, a drain probes the idle mirror's /init probeCount times,
// probeEvery apart.
func (d *harness) load(ctx context.Context, client *http.Client, m0 *site, t0 time.Time, sched []time.Duration, covered chan<- struct{}, finished <-chan struct{}) []initSample {
	var out []initSample
	prevDue, prevDone := t0.Add(-pollEvery), t0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// issue sends one request due at due; false means the cycle ended.
	issue := func(kind int, due time.Time) (initSample, bool) {
		start := due
		if prevDone.After(start) {
			start = prevDone
		}
		if wait := time.Until(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return initSample{}, false
			case <-timer.C:
			}
		}
		sentAt := time.Now()
		s := initSample{kind: kind, due: due.UnixNano(), sent: sentAt.UnixNano(), late: sentAt.Sub(start)}
		var p promSeries
		var reply initReply
		var err error
		if kind == reqProgress {
			p, err = scrape(client, m0)
		} else {
			reply, err = fetchInit(ctx, client, m0)
		}
		// The body has arrived; decoding it is the harness's own work.
		doneAt := time.Now()
		switch {
		case err != nil:
		case kind == reqProgress:
			s.ok = true
			s.applied = p.sum("events_processed_total")
			s.anchor = d.ref.prefix(s.applied)
		case reply.status == http.StatusOK:
			if _, derr := ede.DecodeSnapshot(reply.body, statePadding); derr != nil {
				s.badBody = true
			} else {
				s.anchor = reply.anchor
				s.ok = true
			}
		}
		s.done = doneAt.UnixNano()
		if kind != reqProgress && doneAt.Sub(due) > initLimit {
			s.ok = false
		}
		out = append(out, s)
		prevDue, prevDone = due, doneAt
		return s, ctx.Err() == nil
	}

	for _, at := range sched {
		if _, ok := issue(reqInit, t0.Add(at)); !ok {
			return out
		}
	}
	drain := d.wl.storm == nil
	for drain {
		s, ok := issue(reqProgress, prevDue.Add(pollEvery))
		if !ok {
			return out
		}
		if s.applied >= d.ref.mirrorWeight {
			break
		}
	}
	for {
		s, ok := issue(reqInit, prevDue.Add(pollEvery))
		if !ok {
			return out
		}
		if s.ok && covers(s.anchor, d.ref.counts) {
			break
		}
	}
	close(covered)
	select {
	case <-ctx.Done():
		return out
	case <-finished:
	}
	if drain {
		probeStart := time.Now()
		for i := 0; i < probeCount; i++ {
			if _, ok := issue(reqProbe, probeStart.Add(time.Duration(i)*probeEvery)); !ok {
				break
			}
		}
	}
	return out
}

// awaitFinish waits until mirror0's anchor covers the trace, then
// checks every site's /metrics each pollEvery until the central has
// applied the whole trace and each mirror has applied every event the
// central mirrored (by weight). It returns the instant that was seen.
func (d *harness) awaitFinish(ctx context.Context, c *deployment, covered <-chan struct{}) (time.Time, error) {
	select {
	case <-covered:
	case <-ctx.Done():
		return time.Time{}, errors.New("mirror0 never reported an anchor covering the trace")
	}
	n := float64(len(d.events))
	for {
		done, err := d.finished(c, n)
		if err != nil {
			return time.Time{}, err
		}
		if done {
			return time.Now(), nil
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("mirrors did not finish within %v", cycleTimeout)
		case <-time.After(pollEvery):
		}
	}
}

func (d *harness) finished(c *deployment, n float64) (bool, error) {
	cp, err := scrape(d.ctl, c.central)
	if err != nil {
		return false, err
	}
	if cp.sum("events_processed_total") < n {
		return false, nil
	}
	weight := d.ref.mirrorWeight
	for _, m := range c.mirrors {
		mp, err := scrape(d.ctl, m)
		if err != nil {
			return false, err
		}
		if mp.sum("events_processed_total") < weight {
			return false, nil
		}
	}
	return true, nil
}

// sample scrapes every site until stop, keeping the maxima of the
// queue-depth gauges.
func (d *harness) sample(c *deployment, tr *cycleTrace, stop <-chan struct{}) {
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for i, s := range c.sites() {
			p, err := scrape(d.ctl, s)
			if err != nil {
				continue // a missed sample only coarsens the maxima
			}
			if i == 0 {
				tr.maxReady = math.Max(tr.maxReady, p.max("queue_ready_depth"))
				tr.maxBackup = math.Max(tr.maxBackup, p.max("queue_backup_depth"))
				tr.maxOutbox = math.Max(tr.maxOutbox, math.Max(p.max("link_outbox_depth"), p.max("link_outbox_depth_max")))
				continue
			}
			tr.maxMirrorQueue = math.Max(tr.maxMirrorQueue, p.max("main_queue_depth"))
			if i == 1 {
				tr.maxPending = math.Max(tr.maxPending, p.max("pending_requests"))
			}
		}
	}
}

// score turns the cycle's /init samples into staleness and latency
// values and counts the failed ones.
func (d *harness) score(res *cycleResult, sent, born [][]int64) {
	for _, s := range res.inits {
		stale, lat := math.Inf(1), math.Inf(1)
		if s.ok {
			stale = ms(staleness(s.anchor, sent, born, s.done))
			lat = ms(time.Duration(s.done - s.due))
		} else {
			res.failed++
		}
		if s.kind != reqProbe {
			res.stale = append(res.stale, stale)
		}
		if s.kind != reqProgress {
			res.latency = append(res.latency, lat)
		}
	}
}

// check is the output-correctness gate for one cycle.
func (d *harness) check(c *deployment, finals []promSeries, inits []initSample) error {
	var track anchorTracker
	for _, s := range inits {
		if s.badBody {
			return fmt.Errorf("mirror0 served an /init that does not decode")
		}
		if s.anchor == nil {
			continue
		}
		if err := track.observe(s.anchor); err != nil {
			return fmt.Errorf("mirror0 /init: %w", err)
		}
	}
	for i, p := range finals {
		name := c.sites()[i].name
		if dropped := p.sum("link_dropped_total"); dropped != 0 {
			return fmt.Errorf("%s dropped %g events on its links", name, dropped)
		}
		want := d.ref.mirrorWeight
		if i == 0 {
			want = float64(len(d.events))
			if got := p.sum("central_mirrored_weight_total"); got != d.ref.mirrorWeight {
				return fmt.Errorf("central mirrored a weight of %g events, the reference filter %g", got, d.ref.mirrorWeight)
			}
		}
		if got := p.sum("events_processed_total"); got != want {
			return fmt.Errorf("%s applied %g events, want %g", name, got, want)
		}
	}
	bodies := make([][]byte, 0, 3)
	for _, s := range c.sites() {
		r, err := fetchInit(context.Background(), d.ctl, s)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("%s /init: status %d", s.name, r.status)
		}
		if !covers(r.anchor, d.ref.counts) || !covers(d.ref.counts, r.anchor) {
			return fmt.Errorf("%s anchor %v, want %v", s.name, r.anchor, d.ref.counts)
		}
		bodies = append(bodies, r.body)
	}
	if err := sameBytes("central /init against the reference EDE", bodies[0], d.ref.snapshot); err != nil {
		return err
	}
	if d.wl.overwrite == 0 {
		for i, m := range c.mirrors {
			if err := sameBytes(m.name+" /init against the central", bodies[i+1], bodies[0]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sameBytes("mirror1 /init against mirror0", bodies[2], bodies[1]); err != nil {
		return err
	}
	return d.ref.checkSelective("mirror0 /init", bodies[1], bodies[0])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
