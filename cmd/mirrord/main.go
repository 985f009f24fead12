// Command mirrord runs one site of the mirrored OIS server over TCP.
//
// A deployment runs one central site and any number of mirror sites,
// mirrors first:
//
//	mirrord -role mirror  -listen :7001 -central host0:7000 -http :8001 -site 0
//	mirrord -role mirror  -listen :7002 -central host0:7000 -http :8002 -site 1
//	mirrord -role central -listen :7000 -mirrors host1:7001,host2:7002 -http :8000 \
//	        -selective 10 -chkpt 50
//
// Sources feed the central site with cmd/oisgen; clients fetch
// initialization state from any site's HTTP front (exercised with
// cmd/loadgen).
//
// Adding -peers (the cluster manifest) and -takeover-budget to the
// mirrors arms wire takeover: a killed central is detected by
// missed-round heartbeats, replaced by the -standby site (or by
// committed-cut election when none is designated), and the survivors
// redial the promoted address without restarting. See
// internal/node/takeover.go and the README failover runbook.
//
// mirrord itself parses flags, ticks the takeover runtime and handles
// signals; internal/node assembles and serves the site.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/node"
	"adaptmirror/internal/obs"
)

func main() {
	var (
		role       = flag.String("role", "", "site role: central or mirror")
		listen     = flag.String("listen", "127.0.0.1:7000", "event-channel listen address")
		httpAddr   = flag.String("http", "127.0.0.1:8000", "HTTP front listen address (client requests)")
		central    = flag.String("central", "", "mirror role: central site's event-channel address")
		siteID     = flag.Int("site", 0, "mirror role: this mirror's index in the central site's -mirrors list")
		standby    = flag.Bool("standby", false, "mirror role: arm this site as the warm-standby central (journals mutations per committed cut for post-promotion delta rejoins)")
		peers      = flag.String("peers", "", "mirror role: comma-separated event-channel addresses of every mirror site, indexed by -site (the cluster manifest; required to arm wire takeover)")
		tkBudget   = flag.Int("takeover-budget", 0, "mirror role: missed checkpoint-round intervals tolerated before declaring the central dead (0 = takeover disarmed)")
		tkInterval = flag.Duration("takeover-interval", node.DefaultTakeoverInterval, "mirror role: central-liveness detection interval")
		advertise  = flag.String("advertise", "", "mirror role: event-channel address announced to survivors after this site promotes (default: this site's -peers entry)")
		mirrors    = flag.String("mirrors", "", "central role: comma-separated mirror event-channel addresses")
		selective  = flag.Int("selective", 0, "overwrite run length for FAA positions (0 = simple mirroring)")
		coalesce   = flag.Int("coalesce", 0, "coalesce up to N events before mirroring (0 = off)")
		chkpt      = flag.Int("chkpt", 50, "checkpoint once per N processed events")
		padding    = flag.Int("padding", 64, "per-flight init-state padding bytes")
		shards     = flag.Int("shards", 0, "EDE state shard count, rounded up to a power of two (0 = default)")
		workers    = flag.Int("reqworkers", 0, "init-state serving pool size (0 = default)")
		adaptOn    = flag.Bool("adapt", false, "central role: enable runtime adaptation between mirroring functions")
		adaptPri   = flag.Int("adapt-primary", 100, "pending-request primary threshold for adaptation")
		adaptSec   = flag.Int("adapt-secondary", 50, "hysteresis below primary for reverting")
		logDir     = flag.String("log", "", "central role: directory for the durable operations log (empty = disabled)")
		dumpEvery  = flag.Duration("metricsdump", 0, "dump the metrics registry to stdout this often, in the Prometheus text format (0 = off)")
		auditPath  = flag.String("auditlog", "", "central role with -adapt: durable JSONL file recording every adaptation transition")
		statusAddr = flag.String("statusaddr", "", "extra listen address serving the operations plane (/metrics and /cluster/status) on its own port")
	)
	flag.Parse()

	var (
		site  interface{ Close() error }
		reg   *obs.Registry
		front *httpfront.Front
		err   error
	)
	switch *role {
	case "central":
		var addrs []string
		if *mirrors != "" {
			addrs = strings.Split(*mirrors, ",")
		}
		var c *node.CentralServer
		c, err = startCentral(centralOptions{
			Listen:         *listen,
			HTTP:           *httpAddr,
			Mirrors:        addrs,
			Selective:      *selective,
			Coalesce:       *coalesce,
			ChkptFreq:      *chkpt,
			StatePad:       *padding,
			Shards:         *shards,
			ReqWorkers:     *workers,
			Adapt:          *adaptOn,
			AdaptPrimary:   *adaptPri,
			AdaptSecondary: *adaptSec,
			LogDir:         *logDir,
			AuditPath:      *auditPath,
		})
		if err == nil {
			site, reg, front = c, c.Obs(), c.Front
		}
	case "mirror":
		if *central == "" {
			fmt.Fprintln(os.Stderr, "mirrord: -central is required for the mirror role")
			os.Exit(2)
		}
		var peerAddrs []string
		if *peers != "" {
			peerAddrs = strings.Split(*peers, ",")
		}
		var m *mirrorSite
		m, err = startMirror(mirrorOptions{
			Listen:           *listen,
			HTTP:             *httpAddr,
			Central:          *central,
			SiteID:           *siteID,
			Standby:          *standby,
			StatePad:         *padding,
			Shards:           *shards,
			ReqWorkers:       *workers,
			Peers:            peerAddrs,
			TakeoverBudget:   *tkBudget,
			TakeoverInterval: *tkInterval,
			Advertise:        *advertise,
		})
		if err == nil {
			site, reg, front = m, m.Obs(), m.Front
		}
	default:
		fmt.Fprintln(os.Stderr, "mirrord: -role must be central or mirror")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirrord: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mirrord: %s site up (events %s, http %s)\n", *role, *listen, *httpAddr)

	// The operations plane (/metrics, /cluster/status) is always part of
	// the client-facing front; -statusaddr additionally binds the same
	// mux on a dedicated listener so operators can firewall it apart
	// from client traffic.
	var statusSrv *http.Server
	if *statusAddr != "" {
		ln, lerr := net.Listen("tcp", *statusAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "mirrord: status listener: %v\n", lerr)
			os.Exit(1)
		}
		statusSrv = &http.Server{Handler: front.Handler()}
		go statusSrv.Serve(ln)
		fmt.Printf("mirrord: status plane on %s (/metrics, /cluster/status)\n", ln.Addr())
	}

	if *dumpEvery > 0 {
		go func() {
			t := time.NewTicker(*dumpEvery)
			defer t.Stop()
			for now := range t.C {
				fmt.Printf("# mirrord %s metrics %s\n", *role, now.Format(time.RFC3339))
				_ = reg.WritePrometheus(os.Stdout)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mirrord: shutting down")
	if statusSrv != nil {
		statusSrv.Close()
	}
	site.Close()
}

type centralOptions struct {
	Listen    string
	HTTP      string
	Mirrors   []string
	Selective int
	Coalesce  int
	ChkptFreq int
	StatePad  int
	// Shards/ReqWorkers tune the init-state serving path (0 = the
	// ede/core defaults).
	Shards     int
	ReqWorkers int
	// LogDir, when non-empty, durably records every client state
	// update in a segmented operations log.
	LogDir string
	// Adapt enables runtime adaptation between the paper's two
	// mirroring functions, engaging when any site's pending-request
	// buffer reaches AdaptPrimary and reverting below
	// AdaptPrimary-AdaptSecondary.
	Adapt          bool
	AdaptPrimary   int
	AdaptSecondary int
	// AuditPath, when non-empty (and Adapt is on), durably records
	// every adaptation transition as JSONL at this path.
	AuditPath string
}

// siteMain is the main-unit configuration every mirrord site runs.
func siteMain(statePad, shards, reqWorkers int) core.MainConfig {
	return core.MainConfig{
		EDE:            ede.Config{Model: costmodel.Default, StatePadding: statePad, Shards: shards},
		RequestWorkers: reqWorkers,
	}
}

// startCentral runs a central site over TCP with the deployed cost
// model and, with Adapt, the paper's two mirroring functions.
func startCentral(opts centralOptions) (*node.CentralServer, error) {
	reg := obs.NewRegistry()
	cfg := node.CentralServerConfig{
		CentralConfig: node.CentralConfig{CentralConfig: core.CentralConfig{
			Streams: 2,
			Params: core.Params{
				Coalesce:       opts.Coalesce > 0,
				MaxCoalesce:    opts.Coalesce,
				CheckpointFreq: opts.ChkptFreq,
			},
			Model:  costmodel.Default,
			CPU:    &costmodel.CPU{},
			Main:   siteMain(opts.StatePad, opts.Shards, opts.ReqWorkers),
			Obs:    reg,
			Tracer: obs.NewTracer(reg),
		}},
		Listen:      opts.Listen,
		HTTP:        opts.HTTP,
		MirrorAddrs: opts.Mirrors,
		Selective:   opts.Selective,
		LogDir:      opts.LogDir,
	}
	if opts.Adapt {
		fn1 := adapt.Regime{ID: 1, Name: "coalesce-10/chkpt-50", Coalesce: true, MaxCoalesce: 10, OverwriteLen: opts.Selective, CheckpointFreq: 50}
		fn2 := adapt.Regime{ID: 2, Name: "overwrite-20/chkpt-100", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
		ctl := adapt.NewController(fn1, fn2, nil)
		primary, secondary := opts.AdaptPrimary, opts.AdaptSecondary
		if primary <= 0 {
			primary = 100
		}
		if secondary <= 0 {
			secondary = primary / 2
		}
		ctl.SetMonitorValues(adapt.VarPending, primary, secondary)
		audit := obs.NewAuditLog(0)
		if opts.AuditPath != "" {
			if err := audit.OpenDurable(opts.AuditPath); err != nil {
				return nil, fmt.Errorf("opening audit log: %w", err)
			}
		}
		cfg.Controller, cfg.Audit = ctl, audit
	}
	return node.ServeCentral(cfg)
}

type mirrorOptions struct {
	Listen  string
	HTTP    string
	Central string
	// SiteID is this mirror's index in the central site's -mirrors
	// list. It is stamped on checkpoint replies so the coordinator's
	// per-site reply accounting and the failure detector can tell the
	// mirrors apart.
	SiteID   int
	StatePad int
	// Shards/ReqWorkers tune the init-state serving path (0 = the
	// ede/core defaults).
	Shards     int
	ReqWorkers int
	// Standby arms this site as the warm-standby central: its EDE
	// journals mutations per committed cut so a promoted replacement
	// central can keep serving incremental (delta) rejoins to the
	// surviving mirrors, and the takeover runtime (when armed via
	// Peers/TakeoverBudget) promotes it directly on central failure
	// instead of holding an election.
	Standby bool
	// Peers, TakeoverBudget, TakeoverInterval and Advertise arm wire
	// takeover; see node.MirrorServerConfig.
	Peers            []string
	TakeoverBudget   int
	TakeoverInterval time.Duration
	Advertise        string
}

// mirrorSite is a running mirror site plus the wall-clock ticker that
// drives its takeover runtime.
type mirrorSite struct {
	*node.MirrorServer
	stopTicker func()
}

// startMirror runs a mirror site over TCP and, when takeover is
// armed, ticks its runtime every TakeoverInterval.
func startMirror(opts mirrorOptions) (*mirrorSite, error) {
	reg := obs.NewRegistry()
	s, err := node.ServeMirror(node.MirrorServerConfig{
		MirrorConfig: node.MirrorConfig{MirrorSiteConfig: core.MirrorSiteConfig{
			Main:    siteMain(opts.StatePad, opts.Shards, opts.ReqWorkers),
			Model:   costmodel.Default,
			CPU:     &costmodel.CPU{},
			SiteID:  uint8(opts.SiteID),
			Standby: opts.Standby,
			Obs:     reg,
			Tracer:  obs.NewTracer(reg),
		}},
		Listen:           opts.Listen,
		HTTP:             opts.HTTP,
		Central:          opts.Central,
		Peers:            opts.Peers,
		TakeoverBudget:   opts.TakeoverBudget,
		TakeoverInterval: opts.TakeoverInterval,
		Advertise:        opts.Advertise,
	})
	if err != nil {
		return nil, err
	}
	m := &mirrorSite{MirrorServer: s, stopTicker: func() {}}
	if rt := s.Takeover(); rt != nil {
		interval := opts.TakeoverInterval
		if interval <= 0 {
			interval = node.DefaultTakeoverInterval
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tk := time.NewTicker(interval)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tk.C:
					rt.Tick(now)
				}
			}
		}()
		m.stopTicker = func() { close(stop); <-done }
	}
	return m, nil
}

// Close stops the takeover ticker, then tears the site down.
func (m *mirrorSite) Close() error {
	m.stopTicker()
	return m.MirrorServer.Close()
}
