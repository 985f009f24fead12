package node

import (
	"net"
	"testing"
	"time"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

func TestLazyUplinkRedials(t *testing.T) {
	up := &uplink{addr: "127.0.0.1:1", name: ChanCtrlUp}
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err == nil {
		t.Fatal("submit to unreachable central must fail")
	}
	// Bring a central up and retry.
	central, err := ServeCentral(CentralServerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	up.Repoint(central.Addr)
	if err := up.Submit(event.NewControl(event.TypeChkptReply, nil)); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
	up.Close()
}

// TestLazyUplinkBoundedWrite pins the stalled-peer fix: a peer that
// accepts the connection but never drains it must fail a submission in
// bounded time instead of holding the uplink mutex forever.
func TestLazyUplinkBoundedWrite(t *testing.T) {
	// A raw listener that completes no reads: the dial handshake (if
	// any) and every write eventually fill the kernel buffers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never read
		}
	}()

	l := &uplink{
		addr: ln.Addr().String(), name: ChanCtrlUp,
		dialTimeout: time.Second, writeTimeout: 200 * time.Millisecond,
	}
	defer l.Close()

	// 64KiB payloads fill the socket buffers within a few MB of
	// writes; the write deadline must then surface an error.
	e := event.NewPosition(1, 1, 0, 0, 0, 64<<10)
	e.VT = vclock.VC{1}
	start := time.Now()
	var submitErr error
	for i := 0; i < 4096; i++ {
		if submitErr = l.Submit(e); submitErr != nil {
			break
		}
		if time.Since(start) > 20*time.Second {
			break
		}
	}
	if submitErr == nil {
		t.Fatal("submissions to a never-reading peer never failed")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("bounded-write failure took %s", elapsed)
	}
	// The uplink self-heals: after the failure the link is dropped and
	// the next submission redials rather than reusing the wedged
	// connection.
	if l.link != nil {
		t.Fatal("failed link not cleared for redial")
	}
}
