// Command mirrorbench is the repository's end-to-end benchmark. It runs
// a loopback cluster of real mirrord processes — one central and two
// mirrors — drives it with a seeded OIS trace, checks every site's
// output against an in-process reference, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// run.sh builds mirrord and this harness from the tree, then runs:
//
//	bash mirrorbench/run.sh --workload drain-simple --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates plain
// and traced cycles and reports the per-layer breakdown instead. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"adaptmirror/internal/cluster"
	"adaptmirror/internal/workload"
)

// The trace: FAA positions plus the Delta lifecycle stream.
const (
	traceFlights    = 200
	traceUpdates    = 200
	traceEventSize  = 256
	tracePassengers = 20
	traceStreams    = 2
)

// watchdog bounds a whole run; the sites are killed when it fires.
const watchdog = 170 * time.Second

// setupProbes is how many extra cluster start-ups a run times.
const setupProbes = 30

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name        string
	centralArgs []string // mirrord flags that differ from the defaults
	// overwrite is the -selective run length; 0 mirrors every event.
	overwrite int
	// feedRate is the open-loop feed in events/s; 0 streams the trace
	// as fast as the central accepts it.
	feedRate float64
	// storm is the open-loop /init pattern on mirror0, drawn by
	// thinning at stormPeak; nil sends only completion polls.
	storm     workload.Pattern
	stormPeak float64
}

var workloads = []workloadSpec{
	{name: "drain-simple", centralArgs: []string{"-selective", "0"}},
	{name: "drain-selective", centralArgs: []string{"-selective", "10", "-coalesce", "10"}, overwrite: 10},
	{
		name:        "feed-storm",
		centralArgs: []string{"-selective", "0"},
		feedRate:    7000,
		// Poisson at 80/s with a 100 ms burst at ten times that rate
		// every second: about 150 /init per second on average.
		storm:     workload.Bursty{Base: 80, Burst: 800, Period: time.Second, BurstLen: 100 * time.Millisecond},
		stormPeak: 800,
	},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: drain-simple, drain-selective or feed-storm")
		seed    = flag.Int64("seed", 1, "trace and schedule seed")
		seconds = flag.Int("seconds", 20, "how long to keep starting new cycles")
		traced  = flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
		bin     = flag.String("mirrord", ".bench_build/mirrord", "mirrord binary built from the tree")
		root    = flag.String("root", ".", "root of the source tree, for the run record")
	)
	flag.Parse()
	// The harness keeps little live data; collecting less often keeps
	// its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", *name)
	}
	if _, err := os.Stat(*bin); err != nil {
		fatalf("mirrord binary: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		killAll()
		fatalf("interrupted by %v", s)
	}()
	time.AfterFunc(watchdog, func() {
		killAll()
		fatalf("run exceeded %v", watchdog)
	})

	nproc := runtime.NumCPU()
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d host=%s nproc=%d go=%s gomaxprocs=%d commit=%s\n",
		wl.name, *seed, *seconds, *traced, hostname(), nproc, runtime.Version(), runtime.GOMAXPROCS(0), commit(*root))

	events := cluster.BuildEvents(cluster.Options{
		Flights:          traceFlights,
		UpdatesPerFlight: traceUpdates,
		EventSize:        traceEventSize,
		WithDelta:        true,
		Passengers:       tracePassengers,
		Seed:             *seed,
	})
	d := &harness{
		bin:       *bin,
		wl:        *wl,
		events:    events,
		ref:       buildReference(events, traceStreams, wl.overwrite),
		streamLen: make([]int, traceStreams),
		ctl:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 5 * time.Second},
		rng:       rand.New(rand.NewSource(*seed)),
	}
	for _, e := range events {
		d.streamPos = append(d.streamPos, d.streamLen[e.Stream])
		d.streamLen[e.Stream]++
	}

	// Set-up time is short and noisy next to a cycle, so each run also
	// starts and stops the cluster setupProbes times; setup_s is the
	// median over the probes and the cycles.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		c, setup, err := startCluster(d.bin, 2, wl.centralArgs, d.ctl)
		if err != nil {
			killAll()
			fatalf("set-up probe %d: %v", i, err)
		}
		c.stop()
		setups = append(setups, setup.Seconds())
	}

	// A traced run needs one plain and one traced cycle at least.
	minCycles := 1 + *traced
	var cycles []cycleResult
	var plain, withTrace []int // cycle indexes by mode
	var broken []int           // operations attempted by cycles that failed to finish
	start := time.Now()
	for len(cycles)+len(broken) < minCycles || time.Since(start) < time.Duration(*seconds)*time.Second {
		tr := *traced == 1 && len(cycles)%2 == 1
		res, err := d.runCycle(tr)
		if err != nil {
			// A drive that never finished has no figures; its
			// operations count as failed and the run as incorrect.
			fmt.Fprintf(os.Stderr, "mirrorbench: cycle %d: %v\n", len(cycles)+len(broken), err)
			broken = append(broken, max(res.attempted, len(d.events)))
			continue
		}
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: cycle %d failed its output check: %v\n", len(cycles), res.err)
		}
		fmt.Printf("# cycle %d traced=%v setup=%.2fms drive=%.1fms requests=%d failed=%d\n",
			len(cycles), tr, ms(res.setup), ms(res.drain), len(res.inits), res.failed)
		if tr {
			withTrace = append(withTrace, len(cycles))
		} else {
			plain = append(plain, len(cycles))
		}
		cycles = append(cycles, res)
	}
	d.ctl.CloseIdleConnections()

	out := result{Correct: len(broken) == 0, Metrics: map[string]metricValue{}}
	for _, n := range broken {
		out.Attempted += n
		out.Failed += n
	}
	if len(cycles) == 0 || (*traced == 1 && len(withTrace) == 0) {
		fatalf("no cycle finished")
	}
	for _, c := range cycles {
		out.Attempted += c.attempted
		out.Failed += c.failed
		if c.err != nil {
			out.Correct = false
		}
	}
	if reason := validity(cycles, nproc); reason != "" {
		fmt.Fprintf(os.Stderr, "mirrorbench: run invalid: %s\n", reason)
		fmt.Printf("# invalid: %s\n", reason)
		out.Correct = false
	}
	if *traced == 1 {
		layers, err := perLayer(d, cycles, plain, withTrace, nproc)
		if err != nil {
			fatalf("layer timings: %v", err)
		}
		out.Metrics = layers
	} else {
		out.Metrics = endToEnd(d, cycles, setups)
	}
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("# %-36s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no infinity: a tail made of failed requests is
			// reported as an hour, and the run as incorrect.
			if math.IsNaN(m.Value) {
				m.Value = 0
			} else {
				m.Value = math.Copysign(3.6e6, m.Value)
			}
			out.Metrics[k] = m
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
}

// validity reports why the run's generator or connection budget makes
// its figures meaningless, or "" when they hold.
func validity(cycles []cycleResult, nproc int) string {
	var feed, storm []float64
	for _, c := range cycles {
		feed = append(feed, c.feedLate...)
		for _, s := range c.inits {
			storm = append(storm, ms(s.late))
		}
		if c.loadConns > nproc {
			return fmt.Sprintf("opened %d load connections, budget is nproc=%d", c.loadConns, nproc)
		}
	}
	limit := ms(lateLimit)
	if len(feed) > 0 {
		if s := summarize(feed, 0.99); s.tail > limit {
			return fmt.Sprintf("feed ran %.1f ms late at p%.0f, limit %.0f ms", s.tail, 100*s.tailQ, limit)
		}
	}
	if s := summarize(storm, 0.99); len(storm) > 0 && s.tail > limit {
		return fmt.Sprintf("/init generator ran %.1f ms late at p%.0f, limit %.0f ms", s.tail, 100*s.tailQ, limit)
	}
	return ""
}

// endToEnd reduces the cycles to the metrics a user sees; setups holds
// the set-up times of the run's set-up probes.
func endToEnd(d *harness, cycles []cycleResult, setups []float64) map[string]metricValue {
	var rate, rss []float64
	var stale, lat [][]float64
	ok, total := 0, 0
	for _, c := range cycles {
		rate = append(rate, float64(len(d.events))/c.drain.Seconds())
		setups = append(setups, c.setup.Seconds())
		var kb int64
		for _, v := range c.rssKiB {
			kb += v
		}
		rss = append(rss, float64(kb)/1024)
		stale = append(stale, c.stale)
		lat = append(lat, c.latency)
		for _, s := range c.inits {
			if s.kind == reqProgress {
				continue
			}
			total++
			if s.ok {
				ok++
			}
		}
	}
	st, lt := summarizeCycles(stale, 0.99), summarizeCycles(lat, 0.99)
	fmt.Printf("# %d cycles, %d set-ups; %d /init samples; staleness tail at p%.0f, init tail at p%.0f\n",
		len(cycles), len(setups), st.n, 100*st.tailQ, 100*lt.tailQ)
	return map[string]metricValue{
		"drain_events_per_s": {median(rate), "events/s"},
		"staleness_p50_ms":   {st.p50, "ms"},
		"staleness_p99_ms":   {st.tail, "ms"},
		"init_p50_ms":        {lt.p50, "ms"},
		"init_p99_ms":        {lt.tail, "ms"},
		"init_ok_ratio":      {float64(ok) / math.Max(1, float64(total)), "fraction"},
		"setup_s":            {median(setups), "s"},
		"peak_rss_mb":        {median(rss), "MiB"},
	}
}

// perLayer reduces the traced cycles to the per-layer breakdown and
// times the layers in process.
func perLayer(d *harness, cycles []cycleResult, plain, withTrace []int, nproc int) (map[string]metricValue, error) {
	var wall, centralCPU, mirrorCPU time.Duration
	var accept, feedLate, stormLate []float64
	var centralRSS, mirrorRSS []float64
	var maxReady, maxBackup, maxMQ, maxOutbox, maxPending float64
	delta := func(site int, name string) float64 {
		var sum float64
		for _, i := range withTrace {
			tr := cycles[i].trace
			sum += tr.end[site].sum(name) - tr.start[site].sum(name)
		}
		return sum
	}
	for _, i := range withTrace {
		c := cycles[i]
		tr := c.trace
		wall += tr.wall
		centralCPU += tr.cpu[0]
		for _, m := range tr.cpu[1:] {
			mirrorCPU += m
		}
		maxReady = math.Max(maxReady, tr.maxReady)
		maxBackup = math.Max(maxBackup, tr.maxBackup)
		maxMQ = math.Max(maxMQ, tr.maxMirrorQueue)
		maxOutbox = math.Max(maxOutbox, tr.maxOutbox)
		maxPending = math.Max(maxPending, tr.maxPending)
	}
	for _, c := range cycles {
		accept = append(accept, c.accept.Seconds())
		feedLate = append(feedLate, c.feedLate...)
		for _, s := range c.inits {
			stormLate = append(stormLate, ms(s.late))
		}
		centralRSS = append(centralRSS, float64(c.rssKiB[0])/1024)
		mirrorRSS = append(mirrorRSS, float64(c.rssKiB[1]+c.rssKiB[2])/1024)
	}
	nMirrors := float64(len(cycles[0].rssKiB) - 1)
	events := float64(len(d.events) * len(withTrace))
	received := delta(0, "central_received_total")
	rounds := delta(0, "checkpoint_rounds_total")
	hits, misses := delta(1, "snapshot_cache_hits_total"), delta(1, "snapshot_cache_misses_total")
	served, busy := delta(1, "http_requests_total"), delta(1, "http_busy_total")
	feedP99 := 0.0
	if len(feedLate) > 0 {
		feedP99 = summarize(feedLate, 0.99).tail
	}

	// The traced cycles against the plain ones: drive time on the
	// drains, median /init latency under the storm.
	overhead := func(pick func(cycleResult) []float64) float64 {
		var a, b []float64
		for _, i := range withTrace {
			a = append(a, pick(cycles[i])...)
		}
		for _, i := range plain {
			b = append(b, pick(cycles[i])...)
		}
		return median(a) / median(b)
	}
	var ratio float64
	if d.wl.storm != nil {
		ratio = overhead(func(c cycleResult) []float64 { return c.latency })
	} else {
		ratio = overhead(func(c cycleResult) []float64 { return []float64{c.drain.Seconds()} })
	}

	batch := delta(0, "wire_batch_events_sum") / math.Max(1, delta(0, "wire_batch_events_count"))
	layers, err := runLayers(d.events, traceStreams, max(1, int(math.Round(batch))), nproc)
	if err != nil {
		return nil, err
	}
	m := map[string]metricValue{
		"core.central_cpu_busy":           {centralCPU.Seconds() / wall.Seconds(), "cpu/s"},
		"core.mirror_cpu_busy":            {mirrorCPU.Seconds() / wall.Seconds() / nMirrors, "cpu/s"},
		"core.cpu_us_per_event":           {float64((centralCPU + mirrorCPU).Microseconds()) / events, "us"},
		"core.central_rss_mb":             {median(centralRSS), "MiB"},
		"core.mirror_rss_mb":              {median(mirrorRSS), "MiB"},
		"core.mirrored_ratio":             {delta(0, "central_mirrored_total") / received, "fraction"},
		"core.ready_depth_max":            {maxReady, "events"},
		"core.mirror_queue_depth_max":     {maxMQ, "events"},
		"core.pending_requests_max":       {maxPending, "requests"},
		"echo.outbox_depth_max":           {maxOutbox, "batches"},
		"echo.wire_bytes_per_event":       {delta(0, "link_wire_bytes_total") / math.Max(1, delta(0, "link_sent_total")), "bytes"},
		"echo.batch_events_mean":          {batch, "events"},
		"echo.dropped_events":             {delta(0, "link_dropped_total"), "count"},
		"checkpoint.rounds_per_kevent":    {rounds / (received / 1000), "rounds"},
		"checkpoint.commit_ratio":         {delta(0, "checkpoint_commits_total") / rounds, "fraction"},
		"checkpoint.round_ms_mean":        {1000 * delta(0, "checkpoint_round_seconds_sum") / math.Max(1, delta(0, "checkpoint_round_seconds_count")), "ms"},
		"queue.backup_depth_max":          {maxBackup, "events"},
		"ede.snapcache_hit_ratio":         {hits / math.Max(1, hits+misses), "fraction"},
		"ede.rebuilds_per_init":           {delta(1, "snapshot_cache_rebuilds_total") / math.Max(1, delta(1, "requests_served_total")), "segments"},
		"httpfront.init_kb":               {delta(1, "http_bytes_total") / math.Max(1, served) / 1024, "KiB"},
		"httpfront.busy_ratio":            {busy / math.Max(1, served+busy), "fraction"},
		"harness.feed_accept_s":           {median(accept), "s"},
		"harness.feed_late_ms_p99":        {feedP99, "ms"},
		"harness.storm_late_ms_p99":       {summarize(stormLate, 0.99).tail, "ms"},
		"harness.trace_overhead_ratio":    {ratio, "ratio"},
		"event.frame_encode_ns_per_event": {layers["event.frame_encode_ns_per_event"], "ns"},
	}
	units := map[string]string{
		"event.frame_decode_ns_per_event": "ns",
		"event.frame_allocs_per_batch":    "allocs",
		"echo.tcp_batch_us":               "us",
		"core.mirror_filter_ns_per_event": "ns",
		"ede.process_ns_per_event":        "ns",
		"ede.snapshot_us":                 "us",
		"queue.ready_ns_per_event":        "ns",
		"queue.backup_ns_per_event":       "ns",
		"obs.histogram_record_ns":         "ns",
	}
	for k, u := range units {
		m[k] = metricValue{layers[k], u}
	}
	return m, nil
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// commit names the code under test: the git commit when the tree is a
// repository, else a digest of every Go source and module file.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mirrorbench: "+format+"\n", args...)
	os.Exit(1)
}
