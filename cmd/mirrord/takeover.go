package main

// Wire-level central takeover: the TCP transport for core.Takeover,
// which holds the state machine (detection, the idle-central probe
// decision, standby promotion, elections, announcements, survivor
// rejoin). This file dials peers, repoints the uplink, serves the
// central role on the site's event-channel server once promoted, and
// ticks the runtime from a wall-clock ticker.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/status"
)

const (
	// defaultTakeoverInterval is the detection ticker period; align it
	// with the expected checkpoint-round cadence.
	defaultTakeoverInterval = 500 * time.Millisecond
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

// Takeover roles (status.Takeover.Role).
const (
	roleFollower = core.TakeoverFollower
	roleStandby  = core.TakeoverStandby
	rolePromoted = core.TakeoverPromoted
)

// promotedCentral is the central a mirror site became after winning a
// takeover.
type promotedCentral struct{ *core.PromotedCentral }

func (pc *promotedCentral) excluded(slot int) bool { return pc.Member.Excluded(slot) }

// takeoverRuntime is one mirror site's core.TakeoverTransport over TCP
// plus the ticker that drives the runtime.
type takeoverRuntime struct {
	s        *mirrorSite
	rt       *core.Takeover
	interval time.Duration

	// mu guards the manifest.
	mu        sync.Mutex
	peers     []string
	self      int
	advertise string

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// startTakeover validates the manifest and starts ticking the runtime.
// Ticks before the first checkpoint round are no-ops, so it may start
// before the site's server does.
func startTakeover(s *mirrorSite, opts mirrorOptions) (*takeoverRuntime, error) {
	t := &takeoverRuntime{
		s:         s,
		interval:  opts.TakeoverInterval,
		peers:     append([]string(nil), opts.Peers...),
		self:      opts.SiteID,
		advertise: opts.Advertise,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if t.interval <= 0 {
		t.interval = defaultTakeoverInterval
	}
	if t.advertise == "" && opts.SiteID >= 0 && opts.SiteID < len(opts.Peers) {
		t.advertise = opts.Peers[opts.SiteID]
	}
	rt, err := core.NewTakeover(core.TakeoverConfig{
		Site: s.Mirror, Self: opts.SiteID, Peers: len(opts.Peers),
		Standby: opts.Standby, Budget: opts.TakeoverBudget, Interval: t.interval,
		Directive: func() ([]byte, uint64, bool) {
			reg, round, ok := s.Applier.Current()
			return adapt.EncodeRegime(reg), round, ok
		},
		Central:    core.CentralConfig{Model: costmodel.Default, CPU: &costmodel.CPU{}, Obs: s.Obs, Tracer: s.Tracer},
		Membership: core.MembershipConfig{MissedRounds: promotedMissBudget},
		Transport:  t,
		Stats:      core.RegisterTakeoverMetrics(s.Obs, s.site),
		Logf: func(format string, args ...interface{}) {
			fmt.Printf("mirrord: %s: %s\n", s.site, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	t.rt = rt
	go func() {
		defer close(t.done)
		tk := time.NewTicker(t.interval)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case now := <-tk.C:
				rt.Tick(now)
			}
		}
	}()
	return t, nil
}

func (t *takeoverRuntime) stopAndWait() {
	close(t.stop)
	<-t.done
	t.rt.Settle()
	t.wg.Wait()
}

func (t *takeoverRuntime) peer(slot int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[slot]
}

// SendPeer delivers an election claim over a transient link on its own
// goroutine (peers may be dead; failures are expected and ignored).
func (t *takeoverRuntime) SendPeer(slot int, e *event.Event) {
	addr := t.peer(slot)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		link, err := echo.DialSendTimeout(addr, chanCtrlDown, min(max(t.interval, 500*time.Millisecond), 2*time.Second))
		if err != nil {
			return
		}
		defer link.Close()
		_ = link.Submit(e)
	}()
}

func (t *takeoverRuntime) Repoint(addr string) { t.s.uplink.Repoint(addr) }

// Downlink dials (lazily) the promoted central's links to one survivor;
// PromotedCentral.Close closes them.
func (t *takeoverRuntime) Downlink(slot int) core.MirrorLink {
	addr := t.peer(slot)
	return core.MirrorLink{
		Data: &lazyUplink{addr: addr, name: chanData, writeTimeout: rejoinWriteTimeout},
		Ctrl: &lazyUplink{addr: addr, name: chanCtrlDown},
	}
}

// ServeCentral makes the site's event-channel server serve the central
// role too: sources feed ingress, survivors reply on ctrl.up. The HTTP
// front keeps serving /init from the adopted main unit and also accepts
// client updates like any central.
func (t *takeoverRuntime) ServeCentral(pc *core.PromotedCentral) string {
	s := t.s
	if ingress, err := s.bus.Open(chanIngress); err == nil {
		ingress.Subscribe(func(e *event.Event) { _ = pc.Central.Ingest(e) })
	}
	if ctrlUp, err := s.bus.Open(chanCtrlUp); err == nil {
		ctrlUp.Subscribe(pc.HandleControl)
	}
	s.Front.EnableUpdates(pc.Central.Ingest)
	s.promoted.Store(&promotedCentral{pc})
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.advertise
}

// ProbeCentral reports whether the uplink's address still accepts TCP.
// The timeout is floored at a second whatever the interval: a killed
// central refuses instantly, while a short timeout risks a false death
// verdict (and a spurious election) against a live but slow peer.
func (t *takeoverRuntime) ProbeCentral() bool {
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

// Info snapshots the runtime for /cluster/status.
func (t *takeoverRuntime) Info() *status.Takeover {
	info := t.rt.Info()
	info.CentralAddr = t.s.uplink.Addr()
	return &info
}
