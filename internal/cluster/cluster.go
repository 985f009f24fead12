// Package cluster assembles a mirrored OIS server — one central site
// plus N mirror sites, built by internal/node — over a choice of
// transports, and exposes the handles experiments need: feeding
// events, draining the pipeline, request targets, and the per-node
// virtual CPUs. It is the reproduction's stand-in for the paper's
// 8-node Pentium III cluster.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/metrics"
	"adaptmirror/internal/node"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/status"
)

// Transport selects how sites are wired together.
type Transport int

// Available transports.
const (
	// TransportDirect wires sites with synchronous function calls —
	// the fastest harness, used by most experiments (network cost is
	// modeled by the cost model, matching the paper's observation
	// that intra-cluster bandwidth is not the bottleneck).
	TransportDirect Transport = iota
	// TransportTCP wires sites with framed events over loopback TCP —
	// the deployment path cmd/mirrord runs.
	TransportTCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case TransportDirect:
		return "direct"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Mirrors is the number of mirror sites.
	Mirrors int
	// Transport wires the sites (default TransportDirect).
	Transport Transport
	// Params are the initial mirroring parameters.
	Params core.Params
	// Model is the CPU cost model for every site.
	Model costmodel.Model
	// StatePadding inflates per-flight init-state size.
	StatePadding int
	// StateShards is each site's EDE flight-table stripe count
	// (0 = ede.DefaultShards).
	StateShards int
	// RequestWorkers bounds each site's init-state serving pool
	// (0 = core.DefaultRequestWorkers).
	RequestWorkers int
	// Streams is the input stream count (default 2: FAA + Delta).
	Streams int
	// NoMirror disables the mirroring path (baseline).
	NoMirror bool
	// NICOffload gives the central site a second processor hosting
	// its auxiliary-unit work (the paper's planned IXP1200
	// network-co-processor split).
	NICOffload bool
	// SeriesBin, when non-zero, records a delay time series with this
	// bin width (Figure 9).
	SeriesBin time.Duration
	// ClientOut, when non-nil, additionally receives the central
	// site's client update stream (thin clients, operations logs).
	ClientOut core.Sender
	// DeltaHorizon is the central mutation journal's retention, in
	// committed checkpoint cuts, for incremental mirror rejoin
	// (0 = ede.DefaultJournalHorizon; negative disables journaling so
	// every rejoin ships the full snapshot).
	DeltaHorizon int
}

// Cluster is a running mirrored server.
type Cluster struct {
	Central *core.Central
	Mirrors []*core.MirrorSite

	// CPUs[0] is the central node; CPUs[1..] the mirrors.
	CPUs []*costmodel.CPU

	// DelayHist records central update delays (Figures 7-9 metrics).
	DelayHist *metrics.Histogram
	// RequestHist records init-state request latencies (enqueue →
	// response ready) across every site's serving pool.
	RequestHist *metrics.Histogram
	// DelaySeries is non-nil when Config.SeriesBin was set.
	DelaySeries *metrics.Series

	// Updates counts state updates emitted to regular clients.
	Updates *metrics.Counter

	// Obs is the cluster-wide metrics registry: every site registers
	// its instruments here under a site label, so one scrape (or one
	// WritePrometheus dump) covers the whole cluster.
	Obs *obs.Registry
	// Tracer decomposes the end-to-end update delay into lifecycle
	// stages (ready-wait, forward, apply, fan-out enqueue, link send,
	// mirror apply, checkpoint commit) shared by every site.
	Tracer *obs.Tracer

	central *node.Central
	mirrors []*node.Mirror

	start     time.Time
	closers   []func()
	closeOnce sync.Once
}

// Adapt attaches an adaptation controller to the central site (see
// node.CentralConfig.Controller) and returns the audit log recording
// its transitions.
func (cl *Cluster) Adapt(ctl *adapt.Controller) *obs.AuditLog {
	audit := obs.NewAuditLog(0)
	cl.central.Adapt(ctl, audit)
	return audit
}

// counterSink counts submissions (the regular-clients channel) and
// forwards them to an optional downstream consumer.
type counterSink struct {
	c    *metrics.Counter
	next core.Sender
}

func (s counterSink) Submit(e *event.Event) error {
	s.c.Inc()
	if s.next != nil {
		return s.next.Submit(e)
	}
	return nil
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Streams <= 0 {
		cfg.Streams = 2
	}
	cl := &Cluster{
		DelayHist:   metrics.NewHistogram(0),
		RequestHist: metrics.NewHistogram(0),
		Updates:     &metrics.Counter{},
		Obs:         obs.NewRegistry(),
		start:       time.Now(),
	}
	cl.Tracer = obs.NewTracer(cl.Obs)
	cl.Obs.Describe("update_delay_seconds", "Central update delay, ingress to EDE emission.")
	cl.Obs.RegisterHistogram("update_delay_seconds", cl.DelayHist)
	cl.Obs.Describe("request_latency_seconds", "Init-state request latency, enqueue to response, all sites.")
	cl.Obs.RegisterHistogram("request_latency_seconds", cl.RequestHist)
	cl.Obs.Describe("client_updates_total", "State updates emitted to regular clients.")
	cl.Obs.RegisterCounter("client_updates_total", cl.Updates)
	if cfg.SeriesBin > 0 {
		cl.DelaySeries = metrics.NewSeries(cl.start, cfg.SeriesBin)
	}
	for i := 0; i <= cfg.Mirrors; i++ {
		cl.CPUs = append(cl.CPUs, &costmodel.CPU{})
	}

	mainCfg := cl.siteMainCfg(cfg)
	mainCfg.Out = counterSink{c: cl.Updates, next: cfg.ClientOut}
	mainCfg.DelayHist = cl.DelayHist
	mainCfg.DelaySeries = cl.DelaySeries
	var auxCPU *costmodel.CPU
	if cfg.NICOffload {
		auxCPU = &costmodel.CPU{}
		cl.CPUs = append(cl.CPUs, auxCPU)
	}
	central := node.CentralConfig{CentralConfig: core.CentralConfig{
		Streams:      cfg.Streams,
		Params:       cfg.Params,
		Model:        cfg.Model,
		CPU:          cl.CPUs[0],
		AuxCPU:       auxCPU,
		Main:         mainCfg,
		NoMirror:     cfg.NoMirror,
		DeltaHorizon: cfg.DeltaHorizon,
		Obs:          cl.Obs,
		Tracer:       cl.Tracer,
	}}
	mirrors := make([]node.MirrorConfig, cfg.Mirrors)
	for i := range mirrors {
		mirrors[i] = node.MirrorConfig{MirrorSiteConfig: core.MirrorSiteConfig{
			Main:   cl.siteMainCfg(cfg),
			Model:  cfg.Model,
			CPU:    cl.CPUs[i+1],
			SiteID: uint8(i),
			Obs:    cl.Obs,
			Tracer: cl.Tracer,
		}}
	}

	switch cfg.Transport {
	case TransportDirect:
		cl.wireDirect(central, mirrors)
	case TransportTCP:
		if err := cl.wireTCP(central, mirrors); err != nil {
			cl.Close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown transport %d", cfg.Transport)
	}
	cl.Central = cl.central.Central
	for _, m := range cl.mirrors {
		cl.Mirrors = append(cl.Mirrors, m.MirrorSite)
	}
	return cl, nil
}

type senderFunc func(*event.Event) error

func (f senderFunc) Submit(e *event.Event) error { return f(e) }

// wireDirect connects sites with synchronous calls. Mirrors are
// created first; their control uplinks reach the central late-bound.
func (cl *Cluster) wireDirect(central node.CentralConfig, mirrors []node.MirrorConfig) {
	up := senderFunc(func(e *event.Event) error {
		cl.central.HandleControl(e)
		return nil
	})
	for _, mc := range mirrors {
		mc.CtrlUp = up
		m := node.NewMirror(mc)
		cl.closers = append(cl.closers, m.Close)
		cl.mirrors = append(cl.mirrors, m)
		central.Mirrors = append(central.Mirrors, m.Link())
	}
	cl.central = node.NewCentral(central)
	cl.closers = append(cl.closers, cl.central.Close)
}

// wireTCP serves every site over loopback TCP exactly as cmd/mirrord
// deploys them: mirrors first, then the central dialing each, then
// the mirrors' control uplinks pointed at the central's address.
func (cl *Cluster) wireTCP(central node.CentralConfig, mirrors []node.MirrorConfig) error {
	addrs := make([]string, len(mirrors))
	var servers []*node.MirrorServer
	for i, mc := range mirrors {
		s, err := node.ServeMirror(node.MirrorServerConfig{MirrorConfig: mc, Listen: "127.0.0.1:0"})
		if err != nil {
			return fmt.Errorf("cluster: mirror %d: %w", i, err)
		}
		cl.closers = append(cl.closers, func() { s.Close() })
		cl.mirrors = append(cl.mirrors, s.Mirror)
		servers = append(servers, s)
		addrs[i] = s.Addr
	}
	c, err := node.ServeCentral(node.CentralServerConfig{CentralConfig: central, Listen: "127.0.0.1:0", MirrorAddrs: addrs})
	if err != nil {
		return fmt.Errorf("cluster: central: %w", err)
	}
	cl.closers = append(cl.closers, func() { c.Close() })
	cl.central = c.Central
	for _, s := range servers {
		s.Repoint(c.Addr)
	}
	return nil
}

func edeConfig(cfg Config) ede.Config {
	return ede.Config{Model: cfg.Model, StatePadding: cfg.StatePadding, Shards: cfg.StateShards}
}

// siteMainCfg is the main-unit configuration shared by every site:
// the EDE, the bounded request-serving pool, and the cluster-wide
// request-latency histogram.
func (cl *Cluster) siteMainCfg(cfg Config) core.MainConfig {
	return core.MainConfig{
		EDE:            edeConfig(cfg),
		RequestWorkers: cfg.RequestWorkers,
		RequestHist:    cl.RequestHist,
	}
}

// Targets returns the main units that serve client requests: the
// mirror sites, or the central site when no mirrors exist.
func (cl *Cluster) Targets() []*core.MainUnit {
	if len(cl.Mirrors) == 0 {
		return []*core.MainUnit{cl.Central.Main()}
	}
	out := make([]*core.MainUnit, len(cl.Mirrors))
	for i, m := range cl.Mirrors {
		out[i] = m.Main()
	}
	return out
}

// AllTargets returns every site's main unit — the central site acts
// as the primary mirror in the paper's architecture, so experiment
// request load is "evenly distributed across mirror sites" including
// it (Figures 6-9).
func (cl *Cluster) AllTargets() []*core.MainUnit {
	out := []*core.MainUnit{cl.Central.Main()}
	for _, m := range cl.Mirrors {
		out = append(out, m.Main())
	}
	return out
}

// Feed ingests events in order, as fast as the central site admits
// them.
func (cl *Cluster) Feed(events []*event.Event) error {
	for i, e := range events {
		if err := cl.Central.Ingest(e); err != nil {
			return fmt.Errorf("cluster: feeding event %d/%d: %w", i, len(events), err)
		}
	}
	return nil
}

// FeedPaced ingests events at the given rate in events/second (0
// behaves like Feed). Figure 9's time-series experiment paces its
// stream so adaptation has a timeline to react on.
func (cl *Cluster) FeedPaced(events []*event.Event, rate float64, stop <-chan struct{}) error {
	if rate <= 0 {
		return cl.Feed(events)
	}
	// Accumulate due events as the integral of the rate, dispatching
	// batches per wake-up: accurate pacing at rates far above the
	// host's sleep granularity.
	start := time.Now()
	sent := 0
	for sent < len(events) {
		select {
		case <-stopCh(stop):
			return nil
		default:
		}
		due := int(time.Since(start).Seconds() * rate)
		if due > len(events) {
			due = len(events)
		}
		for ; sent < due; sent++ {
			if err := cl.Central.Ingest(events[sent]); err != nil {
				return fmt.Errorf("cluster: feeding event %d/%d: %w", sent, len(events), err)
			}
		}
		if sent < len(events) {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func stopCh(stop <-chan struct{}) <-chan struct{} {
	if stop == nil {
		return make(chan struct{}) // never ready
	}
	return stop
}

// DrainAll stops ingestion, waits until every site has received and
// processed every event, runs a final checkpoint, and waits for all
// booked CPU work to complete. It returns the wall-clock instant the
// last site finished.
func (cl *Cluster) DrainAll() time.Time {
	cl.Central.Drain()
	// Drain() returning implies the per-link senders have flushed, so
	// LinkStats carries each link's final Sent count. Waiting per link
	// (rather than on the global Mirrored counter) stays correct when a
	// link filtered or shed events: a mirror only ever receives what
	// its own link actually sent.
	stats := cl.Central.LinkStats()
	for i, m := range cl.Mirrors {
		for m.Received() < stats[i].Sent {
			time.Sleep(200 * time.Microsecond)
		}
		m.Drain()
	}
	cl.Central.Checkpoint()
	return costmodel.WaitIdle(cl.CPUs...)
}

// Close tears the cluster down, central first.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		for i := len(cl.closers) - 1; i >= 0; i-- {
			cl.closers[i]()
		}
	})
}

// --- status plane -----------------------------------------------------

// CentralStatus builds the aggregated /cluster/status document: the
// central site's regime, monitored variables, per-link wire telemetry,
// per-site rows (each mirror applier's installed regime + its latest
// piggybacked sample), rejoin accounting, checkpoint progress, and the
// adaptation audit tail.
func (cl *Cluster) CentralStatus() status.Document {
	siteRegimes := make(map[int]status.SiteRegime, len(cl.mirrors))
	for i, m := range cl.mirrors {
		if reg, round, ok := m.Applier.Current(); ok {
			siteRegimes[i] = status.SiteRegime{RegimeID: reg.ID, DirectiveRound: round}
		}
	}
	return cl.central.Status(siteRegimes)
}

// MirrorStatus builds mirror i's local status document.
func (cl *Cluster) MirrorStatus(i int) status.Document {
	if i < 0 || i >= len(cl.mirrors) {
		return status.Document{Role: "mirror"}
	}
	return cl.mirrors[i].Status()
}
