// Functional distribution: the paper notes that "update events must
// be mirrored both to sites that replicate local state and to sites
// that need such events for functionally different tasks". This demo
// runs a full replica mirror next to a weather-analytics site whose
// link filters everything but weather reports, while the extended
// business rules (crew, baggage, weather) run at every EDE.
//
//	go run ./examples/functional_distribution
package main

import (
	"fmt"
	"log"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/node"
)

func main() {
	// Two mirrors: a state replica and a weather-analytics site.
	// (Control uplinks are omitted: the demo focuses on data flow.)
	extended := core.MainConfig{EDE: ede.Config{Rules: ede.ExtendedRules()}}
	replica := node.NewMirror(node.MirrorConfig{MirrorSiteConfig: core.MirrorSiteConfig{SiteID: 0, Main: extended}})
	defer replica.Close()
	analytics := node.NewMirror(node.MirrorConfig{MirrorSiteConfig: core.MirrorSiteConfig{SiteID: 1, Main: extended}})
	defer analytics.Close()

	weatherOnly := analytics.Link()
	weatherOnly.Filter = func(e *event.Event) bool { return e.Type == event.TypeWeather }
	central := node.NewCentral(node.CentralConfig{CentralConfig: core.CentralConfig{
		Streams: 2,
		Main:    extended,
		Mirrors: []core.MirrorLink{replica.Link(), weatherOnly},
	}})
	defer central.Close()

	// A stormy operational hour: positions, crew and baggage updates,
	// and weather reports of rising severity.
	var seq uint64
	next := func() uint64 { seq++; return seq }
	for round := 0; round < 50; round++ {
		for f := event.FlightID(1); f <= 8; f++ {
			if err := central.Ingest(event.NewPosition(f, next(), 33+float64(round)/10, -84, 31000, 512)); err != nil {
				log.Fatal(err)
			}
		}
		f := event.FlightID(1 + round%8)
		central.Ingest(ede.NewCrewUpdate(f, next(), 6, 1, 64))
		central.Ingest(ede.NewBaggage(f, next(), 128))
		severity := uint8(100 + round*3) // worsening storm
		central.Ingest(ede.NewWeather(f, next(), severity, 256))
	}
	central.Drain()
	// Let the mirrors' pipelines finish.
	for replica.Received() < central.Stats().Mirrored {
		time.Sleep(time.Millisecond)
	}
	replica.Drain()
	analytics.Drain()

	st := central.Stats()
	fmt.Printf("central received %d events\n", st.Received)
	fmt.Printf("replica received:   %4d events (everything)\n", replica.Received())
	fmt.Printf("analytics received: %4d events (weather only — %.0f%% less traffic)\n",
		analytics.Received(), 100*(1-float64(analytics.Received())/float64(replica.Received())))

	// The analytics site's extended state has the storm picture.
	var severe int
	for f := event.FlightID(1); f <= 8; f++ {
		if ws, ok := analytics.Main().Engine().State().Weather(f); ok && ws.Severity >= ede.WeatherSevere {
			severe++
		}
	}
	fmt.Printf("analytics site: %d/8 routes at severe weather (≥%d)\n", severe, ede.WeatherSevere)

	// The replica has the operational state (crew readiness).
	ready := 0
	for f := event.FlightID(1); f <= 8; f++ {
		if cs, ok := replica.Main().Engine().State().Crew(f); ok && cs.Complete {
			ready++
		}
	}
	fmt.Printf("replica site: %d/8 flights with complete crews\n", ready)
}
