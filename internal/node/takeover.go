package node

// Wire-level central takeover: the TCP transport for core.Takeover,
// which holds the state machine (detection, the idle-central probe
// decision, standby promotion, elections, announcements, survivor
// rejoin). This file dials peers, repoints the uplink, and serves the
// central role on the site's event-channel server once promoted. The
// deployment ticks the runtime (MirrorServer.Takeover) from a
// wall-clock ticker.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
)

const (
	// DefaultTakeoverInterval is the detection tick period; align it
	// with the expected checkpoint-round cadence.
	DefaultTakeoverInterval = 500 * time.Millisecond
	// rejoinWriteTimeout bounds recovery-transfer writes on the
	// promoted central's data downlinks (snapshots are much larger
	// than control frames).
	rejoinWriteTimeout = 30 * time.Second
	// promotedMissBudget is the promoted central's failure-detector
	// budget in checkpoint rounds. Rounds are traffic-driven — a burst
	// starts thousands per second — while survivor replies lag a TCP
	// round trip, so the in-process default (8) would falsely exclude
	// healthy survivors mid-burst; hundreds of outstanding rounds
	// resolve in milliseconds at burst rate, so a generous budget
	// costs nothing.
	promotedMissBudget = 256
)

// tcpTakeover is one mirror site's core.TakeoverTransport over TCP.
type tcpTakeover struct {
	s         *MirrorServer
	interval  time.Duration
	peers     []string
	advertise string

	wg sync.WaitGroup
}

// armTakeover validates the manifest and arms the runtime. Ticks
// before the first checkpoint round are no-ops, so the deployment may
// start ticking before the site's server does.
func (s *MirrorServer) armTakeover(cfg MirrorServerConfig) error {
	t := &tcpTakeover{
		s:         s,
		interval:  cfg.TakeoverInterval,
		peers:     append([]string(nil), cfg.Peers...),
		advertise: cfg.Advertise,
	}
	if t.interval <= 0 {
		t.interval = DefaultTakeoverInterval
	}
	if self := int(cfg.SiteID); t.advertise == "" && self < len(cfg.Peers) {
		t.advertise = cfg.Peers[self]
	}
	s.takeover = t
	_, err := s.Mirror.ArmTakeover(core.TakeoverConfig{
		Self: int(cfg.SiteID), Peers: len(cfg.Peers),
		Standby: cfg.Standby, Budget: cfg.TakeoverBudget, Interval: t.interval,
		Membership: core.MembershipConfig{MissedRounds: promotedMissBudget},
		Transport:  t,
		Logf: func(format string, args ...interface{}) {
			fmt.Printf("mirrord: %s: %s\n", s.Name, fmt.Sprintf(format, args...))
		},
	}, CentralConfig{CentralConfig: core.CentralConfig{
		Model: cfg.Model, CPU: &costmodel.CPU{}, Obs: cfg.Obs, Tracer: cfg.Tracer,
	}})
	return err
}

// SendPeer delivers an election claim over a transient link on its own
// goroutine (peers may be dead; failures are expected and ignored).
func (t *tcpTakeover) SendPeer(slot int, e *event.Event) {
	addr := t.peers[slot]
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		link, err := echo.DialSendTimeout(addr, ChanCtrlDown, min(max(t.interval, 500*time.Millisecond), 2*time.Second))
		if err != nil {
			return
		}
		defer link.Close()
		_ = link.Submit(e)
	}()
}

func (t *tcpTakeover) Repoint(addr string) { t.s.uplink.Repoint(addr) }

// Downlink dials (lazily) the promoted central's links to one survivor;
// PromotedCentral.Close closes them.
func (t *tcpTakeover) Downlink(slot int) core.MirrorLink {
	addr := t.peers[slot]
	return core.MirrorLink{
		Data: &uplink{addr: addr, name: ChanData, writeTimeout: rejoinWriteTimeout},
		Ctrl: &uplink{addr: addr, name: ChanCtrlDown},
	}
}

// ServeCentral makes the site's event-channel server serve the central
// role too: sources feed ingress, survivors reply on ctrl.up. The HTTP
// front keeps serving /init from the adopted main unit and also accepts
// client updates like any central.
func (t *tcpTakeover) ServeCentral(pc *core.PromotedCentral) string {
	s := t.s
	if ingress, err := s.bus.Open(ChanIngress); err == nil {
		ingress.Subscribe(func(e *event.Event) { _ = pc.Central.Ingest(e) })
	}
	if ctrlUp, err := s.bus.Open(ChanCtrlUp); err == nil {
		ctrlUp.Subscribe(pc.HandleControl)
	}
	if s.Front != nil {
		s.Front.EnableUpdates(pc.Central.Ingest)
	}
	s.promoted.Store(pc)
	return t.advertise
}

// Promoted returns the central this site became after winning a
// takeover (nil before).
func (s *MirrorServer) Promoted() *core.PromotedCentral { return s.promoted.Load() }

// ProbeCentral reports whether the uplink's address still accepts TCP.
// The timeout is floored at a second whatever the interval: a killed
// central refuses instantly, while a short timeout risks a false death
// verdict (and a spurious election) against a live but slow peer.
func (t *tcpTakeover) ProbeCentral() bool {
	addr := t.s.uplink.Addr()
	if addr == "" {
		return false
	}
	conn, err := net.DialTimeout("tcp", addr, min(max(t.interval, time.Second), 5*time.Second))
	if err != nil {
		return false
	}
	conn.Close()
	return true
}
