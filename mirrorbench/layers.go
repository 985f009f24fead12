package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/queue"
	"adaptmirror/internal/vclock"
)

const (
	// layerBudget is how long each layer timing repeats passes over
	// the trace; every timing makes at least one full pass.
	layerBudget = 200 * time.Millisecond
	// chkptEvery is mirrord's default -chkpt: the backup queue is
	// committed once per this many events.
	chkptEvery = 50
	// overwriteLen is drain-selective's -selective.
	overwriteLen = 10
)

// stampTrace copies the trace and stamps it the way the central's
// receiving task does, so the layers see wire-shaped events.
func stampTrace(events []*event.Event, streams int) []*event.Event {
	clock := vclock.New(streams)
	now := time.Now().UnixNano()
	out := make([]*event.Event, len(events))
	for i, e := range events {
		c := e.Clone()
		clock = clock.Tick(int(c.Stream))
		c.VT = clock.Clone()
		c.Ingress = now
		c.Coalesced = 1
		out[i] = c
	}
	return out
}

// batches splits events into consecutive runs of at most size.
func batches(events []*event.Event, size int) [][]*event.Event {
	var out [][]*event.Event
	for len(events) > 0 {
		n := min(size, len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// repeat runs pass until layerBudget has elapsed (at least once) and
// returns the mean time of one pass.
func repeat(pass func()) time.Duration {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < layerBudget {
		pass()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// timed is repeat for passes that time their own measured section.
func timed(pass func() time.Duration) time.Duration {
	start := time.Now()
	var total time.Duration
	n := 0
	for n == 0 || time.Since(start) < layerBudget {
		total += pass()
		n++
	}
	return total / time.Duration(n)
}

func perEvent(d time.Duration, events int) float64 { return float64(d.Nanoseconds()) / float64(events) }

// runLayers times each layer's public entry points on the workload's
// trace in this process, with no cost model, and returns the layer
// metrics by name. batch is the mean wire batch size the cluster
// reported.
func runLayers(trace []*event.Event, streams, batch, nproc int) (map[string]float64, error) {
	events := stampTrace(trace, streams)
	n := len(events)
	bs := batches(events, batch)
	out := map[string]float64{}

	// Columnar frame codec.
	frames := make([][]byte, len(bs))
	var buf []byte
	enc := repeat(func() {
		for _, b := range bs {
			buf, _ = event.AppendBatchFrame(buf[:0], b)
		}
	})
	for i, b := range bs {
		f, err := event.AppendBatchFrame(nil, b)
		if err != nil {
			return nil, fmt.Errorf("encoding a batch frame: %w", err)
		}
		frames[i] = f
	}
	var decErr error
	dec := repeat(func() {
		for _, f := range frames {
			b, err := event.ParseBatchFrame(f)
			if err != nil {
				decErr = err
				return
			}
			b.Release()
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("decoding a batch frame: %w", decErr)
	}
	out["event.frame_encode_ns_per_event"] = perEvent(enc, n)
	out["event.frame_decode_ns_per_event"] = perEvent(dec, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bs {
		buf, _ = event.AppendBatchFrame(buf[:0], b)
		if fb, err := event.ParseBatchFrame(buf); err == nil {
			fb.Release()
		}
	}
	runtime.ReadMemStats(&after)
	out["event.frame_allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / float64(len(bs))

	tcp, err := tcpBatch(bs, n)
	if err != nil {
		return nil, err
	}
	out["echo.tcp_batch_us"] = float64(tcp.Nanoseconds()) / 1e3 / float64(len(bs))

	// Selective mirroring filter. FilterBatch compacts and re-weights
	// in place, so every pass filters fresh shallow copies.
	sem := core.NewSemantics()
	sem.SetOverwrite(event.TypeFAAPosition, overwriteLen)
	copies := make([]event.Event, n)
	ptrs := make([]*event.Event, n)
	filter := timed(func() time.Duration {
		for i, e := range events {
			copies[i] = *e
			ptrs[i] = &copies[i]
		}
		start := time.Now()
		for _, b := range batches(ptrs, batch) {
			sem.FilterBatch(b)
		}
		return time.Since(start)
	})
	out["core.mirror_filter_ns_per_event"] = perEvent(filter, n)

	// EDE apply, single goroutine: the one-core baseline.
	en := ede.New(ede.Config{StatePadding: statePadding})
	proc := repeat(func() {
		for _, e := range events {
			en.Process(e)
		}
	})
	out["ede.process_ns_per_event"] = perEvent(proc, n)

	// Snapshot cache after each batch of updates.
	snapEn := ede.New(ede.Config{StatePadding: statePadding})
	snap := timed(func() time.Duration {
		var t time.Duration
		for _, b := range bs {
			for _, e := range b {
				snapEn.Process(e)
			}
			start := time.Now()
			snapEn.State().CachedSnapshot()
			t += time.Since(start)
		}
		return t
	})
	out["ede.snapshot_us"] = float64(snap.Nanoseconds()) / 1e3 / float64(len(bs))

	// Ready queue hand-off and the backup queue at checkpoint cadence.
	ready := queue.NewReady(0)
	dst := make([]*event.Event, 0, batch)
	var readyErr error
	rq := repeat(func() {
		for _, b := range bs {
			if err := ready.PutBatch(b); err != nil {
				readyErr = err
				return
			}
			if dst, err = ready.GetAppend(dst[:0], batch); err != nil {
				readyErr = err
				return
			}
		}
	})
	if readyErr != nil {
		return nil, fmt.Errorf("ready queue: %w", readyErr)
	}
	out["queue.ready_ns_per_event"] = perEvent(rq, n)
	bq := repeat(func() {
		backup := queue.NewBackup()
		since := 0
		for _, b := range bs {
			backup.AppendBatch(b)
			if since += len(b); since >= chkptEvery {
				backup.Commit(b[len(b)-1].VT)
				since = 0
			}
		}
	})
	out["queue.backup_ns_per_event"] = perEvent(bq, n)

	out["obs.histogram_record_ns"] = histogramRecord(nproc)
	return out, nil
}

// tcpBatch streams the batches over a loopback SendLink to an
// echo.Server subscriber and returns the time until the subscriber
// has received every event.
func tcpBatch(bs [][]*event.Event, n int) (time.Duration, error) {
	bus := echo.NewBus()
	defer bus.Close()
	ch, err := bus.Open("data")
	if err != nil {
		return 0, err
	}
	var got atomic.Int64
	done := make(chan struct{}, 1)
	count := func(k int) {
		if got.Add(int64(k)) >= int64(n) {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	}
	if _, err := ch.SubscribeBatch(func(*event.Event) { count(1) }, func(es []*event.Event, _ event.Ref) { count(len(es)) }); err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := echo.NewServer(bus)
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns once Close has run
		close(served)
	}()
	defer func() {
		srv.Close()
		ln.Close() // in case Close ran before Serve took the listener
		<-served
	}()
	link, err := echo.DialSend(ln.Addr().String(), "data")
	if err != nil {
		return 0, fmt.Errorf("dialing the loopback echo server: %w", err)
	}
	defer link.Close()
	per := timed(func() time.Duration {
		got.Store(0)
		start := time.Now()
		for _, b := range bs {
			if err = link.SubmitBatch(b); err != nil {
				return 0
			}
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("loopback subscriber received %d of %d events", got.Load(), n)
		}
		return time.Since(start)
	})
	return per, err
}

// histogramRecord is the cost of one metrics.Histogram.Record call
// while nproc goroutines record into the same histogram.
func histogramRecord(nproc int) float64 {
	const perG = 200000
	h := metrics.NewHistogram(0)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / perG
}
