package node

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/oislog"
	"adaptmirror/internal/status"
)

// Channel names of the deployed wire protocol. Sources send to the
// central site's "ingress"; the central dials each mirror's "data" and
// "ctrl.down"; mirrors dial the central's "ctrl.up".
const (
	ChanIngress  = "ingress"
	ChanData     = "data"
	ChanCtrlDown = "ctrl.down"
	ChanCtrlUp   = "ctrl.up"
	// ChanUpdates carries the central EDE's output stream; thin
	// clients (cmd/oisclient) subscribe to it with recv links.
	ChanUpdates = "updates"
)

// CentralServerConfig parameterizes a central site served over TCP.
type CentralServerConfig struct {
	CentralConfig
	// Listen is the event-channel listen address. HTTP, when
	// non-empty, is the HTTP front's (client requests, /metrics,
	// /cluster/status).
	Listen, HTTP string
	// MirrorAddrs are the mirror sites' event-channel addresses; each
	// is dialed at startup, so an unreachable mirror fails the site.
	MirrorAddrs []string
	// Selective, when positive, installs selective mirroring with this
	// FAA overwrite run length before the site serves.
	Selective int
	// LogDir, when non-empty, durably records every client state
	// update in a segmented operations log (the paper's logging
	// database consumer).
	LogDir string
}

// CentralServer is a running central site served over TCP.
type CentralServer struct {
	*Central
	// Front is the HTTP front (nil without CentralServerConfig.HTTP).
	Front *httpfront.Front
	// Log is non-nil when LogDir was configured.
	Log *oislog.Log
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string

	cfg   CentralServerConfig
	srv   *echo.Server
	bus   *echo.Bus
	links []*uplink
}

// ServeCentral assembles a central site: send links to every mirror,
// an event-channel server for ingress and control-up traffic, and
// (with HTTP set) an HTTP front. Close also closes cfg.Audit.
func ServeCentral(cfg CentralServerConfig) (*CentralServer, error) {
	s := &CentralServer{cfg: cfg, bus: echo.NewBus()}

	// Dial every mirror before constructing the central so its
	// sending task has live links from the first event (and a bad
	// mirror address fails site startup immediately). The links redial
	// on the next submit after a failure, so a mirror that crashes and
	// restarts on the same address can be recovered over the same
	// MirrorLink by Membership.Rejoin.
	cc := cfg.CentralConfig.CentralConfig
	cc.Mirrors = nil
	for _, addr := range cfg.MirrorAddrs {
		data, err := dialUplink(addr, ChanData)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dialing mirror %s data channel: %w", addr, err)
		}
		s.links = append(s.links, data)
		ctrl, err := dialUplink(addr, ChanCtrlDown)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("dialing mirror %s control channel: %w", addr, err)
		}
		s.links = append(s.links, ctrl)
		cc.Mirrors = append(cc.Mirrors, core.MirrorLink{Data: data, Ctrl: ctrl})
	}
	cc.NoMirror = cc.NoMirror || len(cc.Mirrors) == 0

	// The central EDE's output stream is exported on the updates
	// channel for remote thin clients, and optionally tee'd into the
	// durable operations log.
	updatesCh, err := s.bus.Open(ChanUpdates)
	if err != nil {
		s.Close()
		return nil, err
	}
	if next := cc.Main.Out; next != nil {
		cc.Main.Out = teeSender{updatesCh, next}
	} else {
		cc.Main.Out = updatesCh
	}
	if cfg.LogDir != "" {
		logOut, err := oislog.Open(cfg.LogDir, oislog.Options{})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Log = logOut
		updatesCh.Subscribe(func(e *event.Event) { _ = logOut.Append(e) })
	}
	nc := cfg.CentralConfig
	nc.CentralConfig = cc
	s.Central = NewCentral(nc)
	if cfg.Selective > 0 {
		s.Central.InstallSelective(cfg.Selective)
	}

	// Export ingress and control-up channels.
	ingress, err := s.bus.Open(ChanIngress)
	if err != nil {
		s.Close()
		return nil, err
	}
	ingress.Subscribe(func(e *event.Event) { _ = s.Central.Ingest(e) })
	ctrlUp, err := s.bus.Open(ChanCtrlUp)
	if err != nil {
		s.Close()
		return nil, err
	}
	ctrlUp.Subscribe(s.Central.HandleControl)

	if s.Addr, s.srv, err = serve(s.bus, cfg.Listen); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.HTTP != "" {
		s.Front = httpfront.NewWithRegistry(s.Central.Main(), cfg.Obs)
		// Gate agents and similar clients may generate state updates;
		// they enter through the central site's receiving task.
		s.Front.EnableUpdates(s.Central.Ingest)
		s.Front.SetStatus(func() status.Document { return s.Status(nil) })
		if s.HTTPAddr, err = s.Front.Listen(cfg.HTTP); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// serve exports bus on a TCP listener at addr.
func serve(bus *echo.Bus, addr string) (string, *echo.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("listening on %s: %w", addr, err)
	}
	srv := echo.NewServer(bus)
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}

// Close tears the site down.
func (s *CentralServer) Close() error {
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.Central != nil {
		s.Central.Close()
	}
	if s.Log != nil {
		s.Log.Close()
	}
	if s.cfg.Audit != nil {
		s.cfg.Audit.Close()
	}
	for _, l := range s.links {
		l.Close()
	}
	s.bus.Close()
	return nil
}

// teeSender submits to both senders, in order.
type teeSender struct{ a, b core.Sender }

func (t teeSender) Submit(e *event.Event) error {
	if err := t.a.Submit(e); err != nil {
		return err
	}
	return t.b.Submit(e)
}

// MirrorServerConfig parameterizes a mirror site served over TCP.
type MirrorServerConfig struct {
	MirrorConfig
	// Listen is the event-channel listen address. HTTP, when
	// non-empty, is the HTTP front's.
	Listen, HTTP string
	// Central is the central site's event-channel address. The control
	// uplink dials it on first use, so mirrors may start first; an
	// empty address waits for Repoint.
	Central string
	// Peers is the shared cluster manifest: every mirror site's
	// event-channel address, indexed by site ID (entry SiteID is this
	// site's own). Together with TakeoverBudget > 0 it arms the
	// wire-takeover runtime, which the deployment ticks every
	// TakeoverInterval (0 = DefaultTakeoverInterval).
	Peers            []string
	TakeoverBudget   int
	TakeoverInterval time.Duration
	// Advertise overrides the address announced to survivors after a
	// promotion (default Peers[SiteID]).
	Advertise string
}

// MirrorServer is a running mirror site served over TCP.
type MirrorServer struct {
	*Mirror
	// Front is the HTTP front (nil without MirrorServerConfig.HTTP).
	Front *httpfront.Front
	// Addr and HTTPAddr are the bound listen addresses.
	Addr     string
	HTTPAddr string

	srv    *echo.Server
	bus    *echo.Bus
	uplink *uplink
	// takeover is the wire-takeover transport (nil when disarmed);
	// promoted holds the central this site became after a takeover.
	takeover *tcpTakeover
	promoted atomic.Pointer[core.PromotedCentral]
}

// ServeMirror assembles a mirror site: an event-channel server
// exporting its data and control channels, a lazily dialed control
// uplink to the central site, and (with HTTP set) an HTTP front.
func ServeMirror(cfg MirrorServerConfig) (*MirrorServer, error) {
	s := &MirrorServer{bus: echo.NewBus(), uplink: &uplink{addr: cfg.Central, name: ChanCtrlUp}}
	mc := cfg.MirrorConfig
	mc.CtrlUp = s.uplink
	s.Mirror = NewMirror(mc)

	data, err := s.bus.Open(ChanData)
	if err != nil {
		s.Close()
		return nil, err
	}
	data.SubscribeBatch(s.Mirror.HandleData, func(es []*event.Event, ref event.Ref) {
		_ = s.Mirror.HandleOwnedBatch(es, ref)
	})
	ctrl, err := s.bus.Open(ChanCtrlDown)
	if err != nil {
		s.Close()
		return nil, err
	}
	ctrl.Subscribe(s.Mirror.HandleControl)
	if cfg.HTTP != "" {
		s.Front = httpfront.NewWithRegistry(s.Mirror.Main(), cfg.Obs)
		s.Front.SetStatus(s.Status)
	}

	// Arm the takeover runtime before the event-channel server starts:
	// a promotion reaches for the bus and the front.
	if cfg.TakeoverBudget > 0 && len(cfg.Peers) > 0 {
		if err := s.armTakeover(cfg); err != nil {
			s.Close()
			return nil, err
		}
	}

	if s.Addr, s.srv, err = serve(s.bus, cfg.Listen); err != nil {
		s.Close()
		return nil, err
	}
	if s.Front != nil {
		if s.HTTPAddr, err = s.Front.Listen(cfg.HTTP); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Repoint swings the control uplink to the central at addr.
func (s *MirrorServer) Repoint(addr string) { s.uplink.Repoint(addr) }

// Status builds this site's status document: the mirror-local view
// (applier-held regime, monitored variables), or — after a wire
// takeover promoted this site — the full central document. Either way
// an armed takeover runtime reports its state.
func (s *MirrorServer) Status() status.Document {
	var doc status.Document
	if pc := s.Promoted(); pc != nil {
		doc = status.Central(status.CentralSources{Site: s.Name, Central: pc.Central})
	} else {
		doc = s.Mirror.Status()
	}
	if rt := s.Takeover(); rt != nil {
		info := rt.Info()
		info.CentralAddr = s.uplink.Addr()
		doc.Takeover = &info
	}
	return doc
}

// Close tears the site down. The deployment stops ticking the
// takeover runtime first.
func (s *MirrorServer) Close() error {
	if rt := s.Takeover(); rt != nil {
		rt.Settle()
		s.takeover.wg.Wait()
	}
	if s.Front != nil {
		s.Front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if pc := s.Promoted(); pc != nil {
		pc.Close()
	}
	s.Mirror.Close()
	s.uplink.Close()
	s.bus.Close()
	return nil
}

// Uplink dial/write bounds: one unreachable or wedged peer must fail a
// submission in bounded time instead of holding the uplink mutex (and
// every submitter behind it) forever.
const (
	defaultDialTimeout  = 3 * time.Second
	defaultWriteTimeout = 5 * time.Second
)

// uplink is a self-healing send link to one channel of a peer site: it
// dials on first use and redials after failures. Mirrors use it for
// the control uplink so they can start before the central site exists
// (the documented startup order); the central uses it (via
// dialUplink, which dials eagerly) for its per-mirror data and control
// downlinks so a restarted mirror can be re-admitted over the same
// link. Every dial and write carries a deadline, and Repoint swings
// the link to a new peer address (wire takeover: survivors redial the
// promoted central).
type uplink struct {
	name string

	mu   sync.Mutex
	addr string
	link *echo.SendLink
	// dialTimeout/writeTimeout bound the dial and each write (zero
	// values fall back to the package defaults; tests shrink them).
	dialTimeout  time.Duration
	writeTimeout time.Duration
}

// ensureLocked dials the link if needed. Callers hold l.mu.
func (l *uplink) ensureLocked() error {
	if l.link != nil {
		return nil
	}
	dt := l.dialTimeout
	if dt <= 0 {
		dt = defaultDialTimeout
	}
	link, err := echo.DialSendTimeout(l.addr, l.name, dt)
	if err != nil {
		return err
	}
	wt := l.writeTimeout
	if wt <= 0 {
		wt = defaultWriteTimeout
	}
	link.SetWriteTimeout(wt)
	l.link = link
	return nil
}

// Repoint swings the uplink to a new peer address: the current
// connection (if any) is closed and the next submission dials addr.
func (l *uplink) Repoint(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addr = addr
	if l.link != nil {
		l.link.Close()
		l.link = nil
	}
}

// Addr returns the peer address the uplink currently targets.
func (l *uplink) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// Submit implements core.Sender.
func (l *uplink) Submit(e *event.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureLocked(); err != nil {
		return err
	}
	if err := l.link.Submit(e); err != nil {
		l.link.Close()
		l.link = nil
		return err
	}
	return nil
}

// SubmitBatch implements core.BatchSender: the whole batch rides one
// framed write on the underlying link.
func (l *uplink) SubmitBatch(events []*event.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureLocked(); err != nil {
		return err
	}
	if err := l.link.SubmitBatch(events); err != nil {
		l.link.Close()
		l.link = nil
		return err
	}
	return nil
}

// SubmitOwned implements core.OwnedBatchSender: the underlying
// echo.SendLink only encodes the views into its write buffer, so
// nothing outlives the call and the caller's slabs stay reusable.
func (l *uplink) SubmitOwned(events []*event.Event, _ event.Ref) error {
	return l.SubmitBatch(events)
}

// dialUplink returns an uplink whose first dial has already
// succeeded, so an unreachable address still fails fast at startup.
func dialUplink(addr, name string) (*uplink, error) {
	l := &uplink{addr: addr, name: name}
	l.mu.Lock()
	err := l.ensureLocked()
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Close shuts the current link down.
func (l *uplink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.link != nil {
		err := l.link.Close()
		l.link = nil
		return err
	}
	return nil
}
