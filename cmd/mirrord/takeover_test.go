package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/node"
	"adaptmirror/internal/status"
	"adaptmirror/internal/vclock"
)

// freeAddrs reserves n loopback addresses for the peers manifest: a
// deployment writes real addresses into -peers up front.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// takeoverMirror starts one wire-takeover-armed mirror listening on
// its own manifest entry.
func takeoverMirror(t *testing.T, peers []string, siteID int, standby bool, budget int) *mirrorSite {
	t.Helper()
	m, err := startMirror(mirrorOptions{
		Listen: peers[siteID], HTTP: "127.0.0.1:0",
		SiteID:           siteID,
		Standby:          standby,
		Peers:            peers,
		TakeoverBudget:   budget,
		TakeoverInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// feed streams count position events into addr's ingress channel,
// starting at seq.
func feed(t *testing.T, addr string, seq, count uint64) {
	t.Helper()
	src, err := echo.DialSend(addr, node.ChanIngress)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := seq; i < seq+count; i++ {
		e := event.NewPosition(event.FlightID(1+i%4), i, float64(i), -float64(i), 9000, 128)
		if err := src.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func clusterStatus(t *testing.T, httpAddr string) status.Document {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc status.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// runWireTakeover is the shared scenario: central + two armed mirrors
// over real loopback TCP, kill the central, wait for m0 to take over
// and m1 to rejoin, then verify the survivor converges byte-exact with
// the promoted central in epoch 1.
func runWireTakeover(t *testing.T, m0, m1 *mirrorSite) {
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m0.Addr, m1.Addr},
		ChkptFreq: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m0.Repoint(central.Addr)
	m1.Repoint(central.Addr)

	// Normal operation: events replicate, checkpoint rounds commit a
	// non-zero cut (the very first round can still commit <0>).
	// CHKPT frames ride a different TCP connection than data, so a
	// burst's final round can poll the mirrors before their data lands
	// and commit a stale (even zero) cut — and with checkpointing
	// traffic-driven, no later round fixes it up. Re-trigger rounds
	// while waiting, exactly like a continuous stream would.
	feed(t, central.Addr, 1, 100)
	waitUntil(t, 10*time.Second, "pre-kill replication and commits", func() bool {
		central.Central.Checkpoint()
		return vclock.VC(central.Central.CommittedCut()).Sum() > 0 &&
			m0.Mirror.LastRound() > 0 && m1.Mirror.LastRound() > 0 &&
			m0.Mirror.Received() == 100 && m1.Mirror.Received() == 100
	})
	oldCut := vclock.VC(central.Central.CommittedCut())

	// Kill the central process-equivalently: listener and links die.
	central.Close()

	// Detection, promotion (direct or by election), and survivor
	// rejoin all happen over the wire.
	waitUntil(t, 10*time.Second, "takeover promotion", func() bool {
		return m0.Promoted() != nil
	})
	pc := m0.Promoted()
	if got := pc.Central.Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}
	waitUntil(t, 10*time.Second, "survivor rejoin", func() bool {
		return !pc.Member.Excluded(1)
	})
	if addr := m1.Status().Takeover.CentralAddr; addr != m0.Addr {
		t.Fatalf("survivor uplink = %s, want the promoted address %s", addr, m0.Addr)
	}

	// Every pre-kill committed event is present on the new central.
	if lp := pc.Central.Main().LastProcessed(); !oldCut.LessEq(lp) {
		t.Fatalf("committed cut %s not covered by promoted state %s", oldCut, lp)
	}

	// The cluster keeps serving: a full source burst ingested at the
	// promoted central reaches the survivor, and epoch-1 rounds commit
	// on it. The burst size matters — it drives many checkpoint rounds
	// while the survivor's replies lag a TCP round trip, which used to
	// trip the promoted central's failure detector into falsely
	// excluding (and silently unmirroring) the healthy survivor.
	feed(t, m0.Addr, 101, 5000)
	waitUntil(t, 10*time.Second, "post-takeover round on the survivor", func() bool {
		pc.Central.Checkpoint()
		return m1.Mirror.LastRound()>>checkpoint.EpochShift == 1
	})

	// Byte-exact convergence of the survivor's state with the promoted
	// central's, with the survivor admitted (not burst-excluded).
	var want, got []byte
	waitUntil(t, 10*time.Second, "byte-exact survivor state", func() bool {
		want = pc.Central.Main().Engine().State().Snapshot()
		got = m1.Mirror.Main().Engine().State().Snapshot()
		return !pc.Member.Excluded(1) && bytes.Equal(want, got)
	})

	// Operations plane: both sites report the takeover with
	// central_epoch >= 1.
	d0 := clusterStatus(t, m0.HTTPAddr)
	if d0.Role != "central" || d0.CentralEpoch != 1 {
		t.Fatalf("promoted status = role %q epoch %d, want central/1", d0.Role, d0.CentralEpoch)
	}
	if d0.Takeover == nil || !d0.Takeover.Armed || d0.Takeover.Role != core.TakeoverPromoted || !d0.Takeover.Fired {
		t.Fatalf("promoted takeover status = %+v", d0.Takeover)
	}
	d1 := clusterStatus(t, m1.HTTPAddr)
	if d1.CentralEpoch < 1 {
		t.Fatalf("survivor central_epoch = %d, want >= 1", d1.CentralEpoch)
	}
	if d1.Takeover == nil || d1.Takeover.Role != core.TakeoverFollower && d1.Takeover.Role != core.TakeoverStandby ||
		d1.Takeover.Epoch != 1 || d1.Takeover.Repoints != 1 {
		t.Fatalf("survivor takeover status = %+v", d1.Takeover)
	}

	// Metrics: the firing site counted it, the survivor counted the
	// repoint.
	if text := scrapeMetrics(t, m0.HTTPAddr); !strings.Contains(text, `takeover_fired_total{site="mirror0"} 1`) {
		t.Error("promoted site's takeover_fired_total not exported")
	}
	if text := scrapeMetrics(t, m1.HTTPAddr); !strings.Contains(text, `uplink_repoint_total{site="mirror1"} 1`) {
		t.Error("survivor's uplink_repoint_total not exported")
	}
}

// TestWireTakeoverStandby: the designated warm standby detects the
// dead central over the wire and promotes directly; the survivor
// redials and rejoins. The survivor runs a larger budget so the
// standby always fires first (the documented deployment shape).
func TestWireTakeoverStandby(t *testing.T) {
	peers := freeAddrs(t, 2)
	m0 := takeoverMirror(t, peers, 0, true, 2)
	defer m0.Close()
	m1 := takeoverMirror(t, peers, 1, false, 8)
	defer m1.Close()
	runWireTakeover(t, m0, m1)
}

// TestWireTakeoverElection: no standby designated — the mirrors elect
// over TCP. Site 0 fires first and, holding the same committed cut,
// wins the tie-break (lowest site ID).
func TestWireTakeoverElection(t *testing.T) {
	peers := freeAddrs(t, 2)
	m0 := takeoverMirror(t, peers, 0, false, 2)
	defer m0.Close()
	m1 := takeoverMirror(t, peers, 1, false, 5)
	defer m1.Close()
	runWireTakeover(t, m0, m1)

	// The election itself left a wire trace.
	if text := scrapeMetrics(t, m0.HTTPAddr); !strings.Contains(text, `election_claims_total{site="mirror0"}`) {
		t.Error("election_claims_total not exported on the winner")
	}
}

// TestTakeoverIgnoresIdleCluster: a live but idle central advances no
// rounds; the liveness probe must keep the standby from firing.
func TestTakeoverIgnoresIdleCluster(t *testing.T) {
	peers := freeAddrs(t, 2)
	m0 := takeoverMirror(t, peers, 0, true, 2)
	defer m0.Close()
	m1 := takeoverMirror(t, peers, 1, false, 8)
	defer m1.Close()
	central, err := startCentral(centralOptions{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Mirrors:   []string{m0.Addr, m1.Addr},
		ChkptFreq: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	m0.Repoint(central.Addr)
	m1.Repoint(central.Addr)

	// One commit, then silence: the budget (2 x 50ms) expires many
	// times over while the central idles.
	feed(t, central.Addr, 1, 30)
	waitUntil(t, 10*time.Second, "a committed round", func() bool {
		central.Central.Checkpoint() // re-trigger: a burst's last round can wedge on in-flight data
		_, commits := centralCommits(central)
		return commits > 0 && m0.Mirror.LastRound() > 0
	})
	time.Sleep(500 * time.Millisecond)
	if m0.Promoted() != nil {
		t.Fatal("standby usurped a live idle central")
	}
	if info := m0.Takeover().Info(); info.Fired {
		t.Fatalf("takeover fired against a live central: %+v", info)
	}
}
