package core

import (
	"testing"
	"time"

	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
)

// TestPerMirrorContentFilter exercises the functional-distribution
// path: one full replica mirror plus a weather-analytics site that
// only receives weather events.
func TestPerMirrorContentFilter(t *testing.T) {
	replica := NewMirrorSite(MirrorSiteConfig{SiteID: 0})
	weather := NewMirrorSite(MirrorSiteConfig{
		SiteID: 1,
		Main:   MainConfig{EDE: ede.Config{Rules: ede.ExtendedRules()}},
	})
	defer replica.Close()
	defer weather.Close()

	c := NewCentral(CentralConfig{
		Streams: 1,
		Mirrors: []MirrorLink{
			{
				Data: senderFunc(func(e *event.Event) error { replica.HandleData(e); return nil }),
				Ctrl: senderFunc(func(e *event.Event) error { replica.HandleControl(e); return nil }),
			},
			{
				Data:   senderFunc(func(e *event.Event) error { weather.HandleData(e); return nil }),
				Ctrl:   senderFunc(func(e *event.Event) error { weather.HandleControl(e); return nil }),
				Filter: func(e *event.Event) bool { return e.Type == event.TypeWeather },
			},
		},
	})
	defer c.Close()

	for i := uint64(1); i <= 30; i++ {
		c.Ingest(event.NewPosition(1, i, 0, 0, 0, 32))
	}
	for i := uint64(31); i <= 40; i++ {
		c.Ingest(ede.NewWeather(1, i, 100, 32))
	}
	c.Drain()

	deadline := time.Now().Add(5 * time.Second)
	for replica.Received() < 40 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := replica.Received(); got != 40 {
		t.Fatalf("replica received %d, want 40 (everything)", got)
	}
	for weather.Received() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := weather.Received(); got != 10 {
		t.Fatalf("weather site received %d, want 10 (weather only)", got)
	}
	weather.Drain()
	ws, ok := weather.Main().Engine().State().Weather(1)
	if !ok || ws.Reports != 10 {
		t.Fatalf("weather site state = %+v ok=%v", ws, ok)
	}
}

// TestNICOffloadMovesAuxWork verifies the co-processor split: with an
// AuxCPU configured, mirroring charges land there and the main CPU
// only pays EDE costs.
func TestNICOffloadMovesAuxWork(t *testing.T) {
	mainCPU := &costmodel.CPU{}
	auxCPU := &costmodel.CPU{}
	model := costmodel.Model{
		EventBase:     10 * time.Microsecond,
		SerializeBase: 40 * time.Microsecond, // exaggerated for the assertion
		FramePerEvent: 40 * time.Microsecond,
		SubmitBase:    40 * time.Microsecond,
	}
	mirror := NewMirrorSite(MirrorSiteConfig{})
	defer mirror.Close()
	c := NewCentral(CentralConfig{
		Streams: 1,
		Model:   model,
		CPU:     mainCPU,
		AuxCPU:  auxCPU,
		Mirrors: []MirrorLink{{
			Data: senderFunc(func(e *event.Event) error { mirror.HandleData(e); return nil }),
			Ctrl: senderFunc(func(e *event.Event) error { mirror.HandleControl(e); return nil }),
		}},
		Main: MainConfig{EDE: ede.Config{Model: model}},
	})
	defer c.Close()

	start := time.Now()
	const n = 200
	for i := uint64(1); i <= n; i++ {
		c.Ingest(event.NewPosition(1, i, 0, 0, 0, 16))
	}
	c.Drain()
	costmodel.WaitIdle(mainCPU, auxCPU)

	// Main CPU booked ~n×EventBase = 2ms; aux ~n×80µs = 16ms. If the
	// split failed, the main ledger would carry both (~18ms).
	mainBusy := mainCPU.BusyUntil().Sub(start)
	auxBusy := auxCPU.BusyUntil().Sub(start)
	if auxBusy <= mainBusy {
		t.Fatalf("aux ledger (%v) not beyond main (%v): offload ineffective", auxBusy, mainBusy)
	}
	if mainBusy > 10*time.Millisecond {
		t.Fatalf("main CPU carried %v; mirroring work not offloaded", mainBusy)
	}
}
