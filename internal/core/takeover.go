package core

// Central takeover runtime: the one failover state machine every
// deployment runs. A mirror site arms a Takeover; the deployment
// supplies a TakeoverTransport (TCP in mirrord, seeded fault-plane
// links in the chaos rig) and drives Tick from its own clock, so the
// same code runs at wire speed and on a virtual clock.
//
//   - Detection: a StandbyMonitor counts ticks without a new round.
//     When the budget runs out the transport probes the central —
//     rounds only advance with traffic, so an idle central is not a
//     dead one — and only a failed probe declares it dead.
//   - Promotion: a designated standby promotes itself. Otherwise each
//     site that declares the central dead broadcasts an epoch-stamped
//     ELECT claim, records (and answers) rival claims, and after the
//     election window promotes itself if it beats every rival: highest
//     committed cut first (the commit quorum spans every live site, so
//     any winner holds every committed event), lowest site ID on ties.
//     A loser waits for the winner and re-opens the election if no
//     announcement comes.
//   - Adoption: MirrorSite.Promote → CentralConfig.Resume one epoch
//     past the failed central → a Membership with every slot excluded.
//   - Announcement: the promoted site sends TAKEOVER on every excluded
//     survivor's control downlink at promotion and every tick after.
//     A survivor fences the epoch — the first announcement it accepts
//     per epoch wins, other addresses are rejected, so two would-be
//     centrals cannot split the cluster — repoints its uplink, and
//     sends a RECOVERY_REQ with the cut it may rejoin from; the
//     promoted central re-admits it through Membership.RejoinSince.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// Takeover roles (TakeoverInfo.Role).
const (
	TakeoverFollower  = "follower"
	TakeoverStandby   = "standby"
	TakeoverCandidate = "candidate"
	TakeoverPromoted  = "promoted"
)

// defaultPromotedChkptFreq is a promoted central's checkpoint frequency
// when no directive ever told the mirror the central's parameters.
const defaultPromotedChkptFreq = 50

// deadLink fills the promoted site's own, forever-excluded slot.
type deadLink struct{}

var errSelfSlot = errors.New("core: promoted site's own mirror slot")

func (deadLink) Submit(*event.Event) error { return errSelfSlot }

// TakeoverTransport is everything about takeover that differs per
// deployment. Repoint, Downlink and ProbeCentral must not call back
// into the runtime; SendPeer and the returned links may deliver
// synchronously.
type TakeoverTransport interface {
	// SendPeer delivers an ELECT frame to peer slot, best effort.
	SendPeer(slot int, e *event.Event)
	// Repoint swings the site's uplink to the central at addr.
	Repoint(addr string)
	// Downlink returns the promoted central's links to survivor slot.
	Downlink(slot int) MirrorLink
	// ServeCentral routes source ingress to pc.Central.Ingest and
	// uplink traffic to pc.HandleControl, and returns the address
	// survivors repoint to.
	ServeCentral(pc *PromotedCentral) (addr string)
	// ProbeCentral reports whether the central the uplink targets
	// still answers.
	ProbeCentral() bool
}

// TakeoverConfig arms one mirror site's takeover runtime.
type TakeoverConfig struct {
	Site *MirrorSite
	// Self is the site's slot in the cluster manifest of Peers slots.
	Self, Peers int
	// Standby promotes directly instead of holding an election.
	Standby bool
	// Budget is the tolerated run of ticks without a new round;
	// Interval is the tick period the election windows scale with.
	Budget   int
	Interval time.Duration
	// Directive, when non-nil, reports the adaptation directive the
	// site last installed, for the promoted central to re-broadcast.
	Directive func() (payload []byte, round uint64, ok bool)
	// Central is the promoted central's template; Streams, Params,
	// Mirrors and Resume are filled in at promotion. NewCentral, when
	// non-nil, builds it in place of NewCentral (the deployment's site
	// assembly, so a promoted central carries the same wiring).
	Central    CentralConfig
	NewCentral func(CentralConfig) *Central
	Membership MembershipConfig
	Transport  TakeoverTransport
	// Stats receives the counters (nil allocates private ones); Logf,
	// when non-nil, receives one line per protocol transition.
	Stats *TakeoverStats
	Logf  func(format string, args ...interface{})
}

// PromotedCentral is what a site owns after winning a takeover.
type PromotedCentral struct {
	Central *Central
	Member  *Membership
	Ann     TakeoverAnnouncement
	// Slot is the promoted site's own manifest slot, excluded forever.
	Slot int

	rt       *Takeover
	links    []MirrorLink
	rejoinMu []sync.Mutex
}

// HandleControl routes uplink traffic: checkpoint replies to the
// coordinator, recovery requests to rejoin service on their own
// goroutine (a state transfer must not block the uplink's reader;
// Takeover.Settle waits for them).
func (pc *PromotedCentral) HandleControl(e *event.Event) {
	if e.Type != event.TypeRecoveryRequest {
		pc.Central.HandleControl(e)
		return
	}
	slot, cut := int(e.Seq), e.VT.Clone()
	pc.rt.wg.Add(1)
	go func() {
		defer pc.rt.wg.Done()
		if slot < 0 || slot >= len(pc.rejoinMu) || slot == pc.Slot {
			return
		}
		pc.rejoinMu[slot].Lock()
		defer pc.rejoinMu[slot].Unlock()
		if !pc.Member.Excluded(slot) {
			return // duplicate request; already rejoined
		}
		if _, err := pc.Member.RejoinSince(slot, cut); err != nil {
			pc.rt.logf("rejoining survivor %d: %v", slot, err)
			return
		}
		pc.rt.logf("survivor %d rejoined (cut %s)", slot, cut)
	}()
}

// Close shuts the promoted central down, and with it every downlink
// the transport built that can be closed.
func (pc *PromotedCentral) Close() {
	pc.Central.Close()
	for _, l := range pc.links {
		for _, s := range []Sender{l.Data, l.Ctrl} {
			if c, ok := s.(interface{ Close() error }); ok {
				_ = c.Close()
			}
		}
	}
}

func (a TakeoverAnnouncement) frame() *event.Event {
	return &event.Event{Type: event.TypeTakeover, Seq: a.Epoch, Payload: a.Encode()}
}

func (c ElectionClaim) frame() *event.Event {
	return &event.Event{Type: event.TypeElect, Seq: c.Epoch, Stream: c.Site, Payload: c.Encode()}
}

// TakeoverInfo snapshots a runtime for status reporting (the
// /cluster/status "takeover" object): the role, the miss budget and
// current streak, whether this site declared the central dead, the
// highest epoch it accepted or claimed, the uplink's target (filled in
// by the deployment), and the election_claims_total and
// uplink_repoint_total counters.
type TakeoverInfo struct {
	Armed       bool   `json:"armed"`
	Role        string `json:"role"`
	Budget      int    `json:"budget"`
	Missed      int    `json:"missed"`
	Fired       bool   `json:"fired"`
	Epoch       uint64 `json:"epoch"`
	CentralAddr string `json:"central_addr,omitempty"`
	Claims      uint64 `json:"claims"`
	Repoints    uint64 `json:"repoints"`
}

// Takeover is one mirror site's side of the takeover protocol.
type Takeover struct {
	cfg TakeoverConfig
	wg  sync.WaitGroup

	mu  sync.Mutex
	now time.Time // the latest tick's instant
	mon *StandbyMonitor
	// phase is TakeoverPromoted from the moment promotion starts; pc
	// is set once the central serves.
	phase string
	pc    *PromotedCentral
	// seenEpoch/seenAddr fence announcements.
	seenEpoch uint64
	seenAddr  string
	// claims records rival claims per contested epoch; lastReply
	// throttles this site's answers to them.
	claims    map[uint64]map[uint8]ElectionClaim
	lastReply map[uint64]time.Time
	myClaim   ElectionClaim
	// firedRound is the round watermark when the central was declared
	// dead; a later round in the same epoch aborts the candidacy.
	firedRound     uint64
	nextDecision   time.Time
	awaitingWinner bool
}

// NewTakeover validates cfg and returns an armed runtime. Nothing runs
// until the deployment calls Tick or HandleControl.
func NewTakeover(cfg TakeoverConfig) (*Takeover, error) {
	if cfg.Self < 0 || cfg.Self >= cfg.Peers {
		return nil, fmt.Errorf("takeover: site %d outside the peers manifest (%d entries)", cfg.Self, cfg.Peers)
	}
	if cfg.Site == nil || cfg.Transport == nil || cfg.Interval <= 0 {
		return nil, errors.New("takeover: needs a site, a transport and a positive interval")
	}
	if cfg.Stats == nil {
		cfg.Stats = &TakeoverStats{}
	}
	return &Takeover{
		cfg:       cfg,
		mon:       NewStandbyMonitor(cfg.Site.LastRound, cfg.Budget),
		phase:     TakeoverFollower,
		claims:    make(map[uint64]map[uint8]ElectionClaim),
		lastReply: make(map[uint64]time.Time),
	}, nil
}

func (t *Takeover) logf(format string, args ...interface{}) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Settle waits for the rejoin transfers this runtime has started.
func (t *Takeover) Settle() { t.wg.Wait() }

// curEpochLocked is the highest central epoch this site knows.
func (t *Takeover) curEpochLocked() uint64 {
	return max(t.seenEpoch, t.cfg.Site.LastRound()>>checkpoint.EpochShift)
}

func (t *Takeover) rearmLocked() {
	t.phase = TakeoverFollower
	t.mon = NewStandbyMonitor(t.cfg.Site.LastRound, t.cfg.Budget)
}

// Tick runs one detection interval at instant now.
func (t *Takeover) Tick(now time.Time) {
	t.mu.Lock()
	t.now = now
	switch {
	case t.pc != nil:
		pc := t.pc
		t.mu.Unlock()
		t.heartbeat(pc)
		return
	case t.phase == TakeoverCandidate:
		t.candidateTickLocked()
		return
	case t.phase == TakeoverPromoted,
		// Before the first observed round there is no heartbeat to
		// miss: mirrors start before the central exists.
		t.cfg.Site.LastRound() == 0 && t.seenEpoch == 0,
		!t.mon.Tick():
		t.mu.Unlock()
		return
	}
	seen := t.seenEpoch
	t.mu.Unlock()
	alive := t.cfg.Transport.ProbeCentral()
	t.mu.Lock()
	if t.seenEpoch != seen || t.phase != TakeoverFollower {
		t.mu.Unlock() // an announcement or a promotion won the race
		return
	}
	if alive {
		t.rearmLocked()
		t.mu.Unlock()
		return
	}
	t.cfg.Stats.Fired.Add(1)
	epoch := t.curEpochLocked() + 1
	if t.cfg.Standby {
		t.logf("central dead (missed-round budget %d exhausted) — standby takeover, epoch %d", t.cfg.Budget, epoch)
		t.promoteLocked(epoch)
		return
	}
	t.phase = TakeoverCandidate
	t.firedRound = t.cfg.Site.LastRound()
	t.myClaim = ElectionClaim{Epoch: epoch, Site: uint8(t.cfg.Self), Cut: t.cfg.Site.Backup().Committed()}
	t.nextDecision = now.Add(2 * t.cfg.Interval)
	t.awaitingWinner = false
	claim := t.myClaim
	t.mu.Unlock()
	t.logf("central dead — electing for epoch %d (cut %s)", epoch, claim.Cut)
	t.broadcastClaim(claim)
}

// candidateTickLocked advances an open election; it releases t.mu.
func (t *Takeover) candidateTickLocked() {
	// Rounds resuming in the pre-election epoch prove the central was
	// alive after all.
	if lr := t.cfg.Site.LastRound(); lr > t.firedRound && lr>>checkpoint.EpochShift == t.myClaim.Epoch-1 {
		t.rearmLocked()
		t.mu.Unlock()
		return
	}
	if t.now.Before(t.nextDecision) {
		t.mu.Unlock()
		return
	}
	epoch := t.myClaim.Epoch
	if t.awaitingWinner {
		// The better-placed rival never announced (it may have died
		// too): forget rivals — live ones re-assert — and re-open.
		delete(t.claims, epoch)
		t.awaitingWinner = false
		t.myClaim.Cut = t.cfg.Site.Backup().Committed()
		t.nextDecision = t.now.Add(2 * t.cfg.Interval)
		claim := t.myClaim
		t.mu.Unlock()
		t.broadcastClaim(claim)
		return
	}
	for _, rival := range t.claims[epoch] {
		if rival.Site != uint8(t.cfg.Self) && !t.myClaim.Beats(rival) {
			t.awaitingWinner = true
			t.nextDecision = t.now.Add(time.Duration(t.cfg.Budget+3) * t.cfg.Interval)
			t.mu.Unlock()
			return
		}
	}
	t.logf("election won — promoting, epoch %d", epoch)
	t.promoteLocked(epoch)
}

// promoteLocked turns this site into the epoch's central and releases
// t.mu. Frames arriving while it builds are ignored.
func (t *Takeover) promoteLocked(epoch uint64) {
	t.phase = TakeoverPromoted
	t.mu.Unlock()

	state := t.cfg.Site.Promote()
	state.Epoch = epoch
	if t.cfg.Directive != nil {
		if payload, round, ok := t.cfg.Directive(); ok {
			state.Directive, state.DirectiveRound = payload, round
		}
	}
	_, params, overwrite := t.cfg.Site.Regime()
	if params.CheckpointFreq <= 0 {
		params.CheckpointFreq = defaultPromotedChkptFreq
	}
	// Links stay indexed by manifest slot, so the SiteID survivors
	// stamp on checkpoint replies keeps addressing the right one.
	links := make([]MirrorLink, t.cfg.Peers)
	for i := range links {
		if i == t.cfg.Self {
			links[i] = MirrorLink{Data: deadLink{}, Ctrl: deadLink{}}
		} else {
			links[i] = t.cfg.Transport.Downlink(i)
		}
	}
	cc := t.cfg.Central
	cc.Streams = max(len(state.Clock), 1)
	cc.Params, cc.Mirrors, cc.Resume = params, links, &state
	build := t.cfg.NewCentral
	if build == nil {
		build = NewCentral
	}
	central := build(cc)
	if overwrite > 0 {
		central.InstallSelective(overwrite)
	}
	pc := &PromotedCentral{
		Central:  central,
		Member:   NewMembership(central, t.cfg.Membership),
		Ann:      TakeoverAnnouncement{Epoch: epoch, Anchor: central.Main().LastProcessed()},
		Slot:     t.cfg.Self,
		rt:       t,
		links:    links,
		rejoinMu: make([]sync.Mutex, len(links)),
	}
	for i := range links {
		_ = pc.Member.Exclude(i)
	}
	pc.Ann.Addr = t.cfg.Transport.ServeCentral(pc)

	t.mu.Lock()
	t.seenEpoch, t.seenAddr, t.pc = epoch, pc.Ann.Addr, pc
	t.mu.Unlock()
	t.heartbeat(pc)
}

// heartbeat announces the takeover to every still-excluded survivor.
// It keeps running after convergence, so a survivor excluded later
// hears the announcement again and rejoins the same way.
func (t *Takeover) heartbeat(pc *PromotedCentral) {
	for i, l := range pc.links {
		if i != pc.Slot && pc.Member.Excluded(i) {
			_ = l.Ctrl.Submit(pc.Ann.frame())
		}
	}
}

// HandleControl intercepts takeover frames arriving on the site's
// control downlink and reports whether it consumed the event. Frames
// that fail to decode are dropped (senders retry).
func (t *Takeover) HandleControl(e *event.Event) bool {
	switch e.Type {
	case event.TypeTakeover:
		if ann, err := DecodeTakeoverAnnouncement(e.Payload); err == nil {
			t.onAnnouncement(ann)
		}
	case event.TypeElect:
		if c, err := DecodeElectionClaim(e.Payload); err == nil {
			t.onClaim(c)
		}
	default:
		return false
	}
	return true
}

// onAnnouncement is the survivor side of a takeover: fence the epoch,
// repoint the uplink, and request re-admission from the right cut.
func (t *Takeover) onAnnouncement(ann TakeoverAnnouncement) {
	t.mu.Lock()
	if t.phase == TakeoverPromoted || ann.Epoch <= t.cfg.Site.LastRound()>>checkpoint.EpochShift || ann.Epoch < t.seenEpoch {
		t.mu.Unlock() // promoted here, or stale
		return
	}
	if ann.Epoch == t.seenEpoch && ann.Addr != t.seenAddr {
		t.mu.Unlock()
		t.logf("rejecting conflicting takeover claim for epoch %d from %s (accepted %s)", ann.Epoch, ann.Addr, t.seenAddr)
		return
	}
	// A repeat of the accepted announcement only re-sends the rejoin
	// request below (the first may have been lost).
	repoint := ann.Epoch > t.seenEpoch
	if repoint {
		t.seenEpoch, t.seenAddr = ann.Epoch, ann.Addr
		t.rearmLocked()
		t.cfg.Stats.Repoints.Add(1)
	}
	// Only a site whose arrival watermark the adopted state covers may
	// rejoin from its committed cut; one the old central fed past the
	// promoted site's progress holds mutations the adopted journal
	// never saw and takes the full transfer.
	var cut vclock.VC
	if t.cfg.Site.ArrivalHigh().LessEq(ann.Anchor) {
		cut = t.cfg.Site.Backup().Committed()
	}
	t.mu.Unlock()
	if repoint {
		t.cfg.Transport.Repoint(ann.Addr)
		t.logf("takeover epoch %d — repointing uplink to %s", ann.Epoch, ann.Addr)
	}
	if up := t.cfg.Site.cfg.CtrlUp; up != nil {
		_ = up.Submit(&event.Event{Type: event.TypeRecoveryRequest, Seq: uint64(t.cfg.Self), VT: cut})
	}
}

// onClaim records a rival's election claim and answers with this
// site's own standing, at most once per interval and epoch, so a
// candidate sees every live peer even before that peer's monitor
// fires.
func (t *Takeover) onClaim(c ElectionClaim) {
	t.cfg.Stats.Claims.Add(1)
	t.mu.Lock()
	if pc := t.pc; pc != nil {
		// A late candidate missed the takeover: answer with the
		// announcement so it stands down.
		t.mu.Unlock()
		if s := int(c.Site); c.Epoch <= pc.Ann.Epoch && s < len(pc.links) && s != pc.Slot {
			_ = pc.links[s].Ctrl.Submit(pc.Ann.frame())
		}
		return
	}
	if int(c.Site) == t.cfg.Self || int(c.Site) >= t.cfg.Peers || t.phase == TakeoverPromoted || c.Epoch <= t.curEpochLocked() {
		t.mu.Unlock()
		return
	}
	if t.claims[c.Epoch] == nil {
		t.claims[c.Epoch] = make(map[uint8]ElectionClaim)
	}
	t.claims[c.Epoch][c.Site] = c
	last, replied := t.lastReply[c.Epoch]
	if replied && t.now.Sub(last) < t.cfg.Interval {
		t.mu.Unlock()
		return
	}
	t.lastReply[c.Epoch] = t.now
	reply := ElectionClaim{Epoch: c.Epoch, Site: uint8(t.cfg.Self), Cut: t.cfg.Site.Backup().Committed()}
	t.mu.Unlock()
	t.sendClaim(int(c.Site), reply)
}

func (t *Takeover) broadcastClaim(c ElectionClaim) {
	for i := 0; i < t.cfg.Peers; i++ {
		if i != t.cfg.Self {
			t.sendClaim(i, c)
		}
	}
}

func (t *Takeover) sendClaim(slot int, c ElectionClaim) {
	t.cfg.Stats.Claims.Add(1)
	t.cfg.Transport.SendPeer(slot, c.frame())
}

// Info snapshots the runtime for status reporting.
func (t *Takeover) Info() TakeoverInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	role := t.phase
	if role == TakeoverFollower && t.cfg.Standby {
		role = TakeoverStandby
	}
	return TakeoverInfo{
		Armed:    true,
		Role:     role,
		Budget:   t.cfg.Budget,
		Missed:   t.mon.Missed(),
		Fired:    t.cfg.Stats.Fired.Load() > 0,
		Epoch:    t.seenEpoch,
		Claims:   t.cfg.Stats.Claims.Load(),
		Repoints: t.cfg.Stats.Repoints.Load(),
	}
}
