package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/status"
)

// deltaRegime is the field-delta override the wire-telemetry variables
// install when a link saturates.
var deltaRegime = adapt.Regime{ID: 3, Name: "field-deltas", FieldDeltas: true, CheckpointFreq: 50}

// TestBandwidthEngageVisibleOnEverySite is the PR's acceptance
// criterion end to end: a bandwidth-constrained run (wire-bytes primary
// threshold far below the workload's bytes/round) must engage the
// field-delta regime via the wire telemetry variable, the audit trail
// must attribute the engage to wire_bytes, and /cluster/status
// documents — central and every mirror — must report the transition.
func TestBandwidthEngageVisibleOnEverySite(t *testing.T) {
	fn1 := adapt.Regime{ID: 1, Name: "coalesce-10", Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adapt.Regime{ID: 2, Name: "overwrite-20", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	controller := adapt.NewController(fn1, fn2, nil)
	// ~50 events/round at ~150 wire bytes each puts the EWMA thousands
	// of bytes/round over this primary from the first telemetry tick.
	controller.SetMonitorValues(adapt.VarWireBytes, 1_000, 500)
	controller.SetVarRegime(adapt.VarWireBytes, &deltaRegime)
	// Never revert: the drain tail must not swap the regime back before
	// the assertions run.
	controller.SetRevertAfter(1 << 30)

	cl, err := New(Config{
		Mirrors: 2,
		Model:   lightModel,
		Params:  core.Params{CheckpointFreq: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	audit := cl.Adapt(controller)

	events := BuildEvents(Options{Flights: 10, UpdatesPerFlight: 50, EventSize: 256, Seed: 7})
	if err := cl.Feed(events); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()

	if !controller.Engaged() {
		t.Fatal("bandwidth-constrained run never engaged")
	}
	if got := controller.EngagesByVar(adapt.VarWireBytes); got != 1 {
		t.Fatalf("EngagesByVar(wire_bytes) = %d, want 1", got)
	}
	if got := controller.Current(); got.ID != deltaRegime.ID || !got.FieldDeltas {
		t.Fatalf("engaged regime = %+v, want the field-delta override", got)
	}
	if !cl.Central.FieldDeltas() {
		t.Fatal("central never switched to field-delta mirroring")
	}

	// Audit attribution.
	entries := audit.Entries()
	if len(entries) == 0 {
		t.Fatal("empty audit trail")
	}
	e := entries[0]
	if e.Action != "engage" || e.Var != "wire_bytes" {
		t.Fatalf("audit entry = %+v, want action=engage var=wire_bytes", e)
	}
	if e.WireBytes <= 1_000 {
		t.Fatalf("engage logged wire_bytes=%d, want over the primary threshold", e.WireBytes)
	}

	// The central document reports the engaged field-delta regime, the
	// triggering audit entry, and moving wire telemetry.
	doc := cl.CentralStatus()
	if doc.Regime.ID != deltaRegime.ID || !doc.Regime.FieldDeltas || !doc.Regime.Engaged {
		t.Fatalf("central status regime = %+v, want engaged field-deltas", doc.Regime)
	}
	if len(doc.Audit) == 0 || doc.Audit[0].Var != "wire_bytes" {
		t.Fatalf("central status audit tail = %+v, want the wire_bytes engage", doc.Audit)
	}
	if len(doc.Links) != 2 {
		t.Fatalf("central status has %d links, want 2", len(doc.Links))
	}
	for i, l := range doc.Links {
		if l.SentBytes == 0 || l.BytesPerRound <= 0 {
			t.Fatalf("link %d telemetry never moved: %+v", i, l)
		}
	}

	// Every mirror's own document reports the installed transition: the
	// directive rode a checkpoint round to each site's applier.
	for i := range cl.Mirrors {
		md := cl.MirrorStatus(i)
		if md.Regime.ID != deltaRegime.ID || !md.Regime.FieldDeltas {
			t.Fatalf("mirror %d status regime = %+v, want field-deltas installed", i, md.Regime)
		}
		if md.Regime.DirectiveRound == 0 {
			t.Fatalf("mirror %d reports no directive round", i)
		}
		if got, _, _ := cl.Mirrors[i].Regime(); got != deltaRegime.ID {
			t.Fatalf("mirror %d core regime = %d, want %d", i, got, deltaRegime.ID)
		}
	}
	// And the central's per-site rows agree.
	mirrorRows := 0
	for _, row := range doc.Sites {
		if row.Site == "central" {
			continue
		}
		mirrorRows++
		if row.RegimeID != deltaRegime.ID {
			t.Fatalf("central status row for %s regime = %d, want %d", row.Site, row.RegimeID, deltaRegime.ID)
		}
	}
	if mirrorRows != 2 {
		t.Fatalf("central status has %d mirror rows, want 2", mirrorRows)
	}
}

// TestExperimentWireThresholdEngages covers the experiments-layer
// wiring of the same path: Options.WirePrimary plus Options.DeltaRegime
// must produce an adaptive run whose audit shows a wire_bytes engage
// and whose result carries the FigBandwidth bytes/round metric.
func TestExperimentWireThresholdEngages(t *testing.T) {
	res, err := RunExperiment(Options{
		Mirrors:          2,
		Flights:          10,
		UpdatesPerFlight: 50,
		EventSize:        256,
		ChkptFreq:        50,
		Adaptive:         true,
		Baseline:         adapt.Regime{ID: 1, Name: "baseline", CheckpointFreq: 50},
		Degraded:         adapt.Regime{ID: 2, Name: "degraded", Coalesce: true, MaxCoalesce: 20, CheckpointFreq: 100},
		WirePrimary:      1_000,
		WireSecondary:    500,
		DeltaRegime:      deltaRegime,
		Model:            lightModel,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engages == 0 {
		t.Fatal("wire threshold never engaged")
	}
	found := false
	for _, e := range res.Audit {
		if e.Action == "engage" && e.Var == "wire_bytes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wire_bytes engage in audit: %+v", res.Audit)
	}
	if res.LinkSentBytes == 0 || res.BytesPerRound <= 0 {
		t.Fatalf("bandwidth accounting empty: sent=%d bytes/round=%v", res.LinkSentBytes, res.BytesPerRound)
	}
}

// TestStatusScrapeStorm hammers /cluster/status over real HTTP while a
// Fig5-style workload is in flight — the aggregator walks live link
// stats, telemetry, controller tables, and applier state, so this is
// the race-detector coverage for the whole status plane (run under
// `go test -race`, part of `make ci`).
func TestStatusScrapeStorm(t *testing.T) {
	fn1 := adapt.Regime{ID: 1, Name: "coalesce-10", Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adapt.Regime{ID: 2, Name: "overwrite-20", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	controller := adapt.NewController(fn1, fn2, nil)
	controller.SetMonitorValues(adapt.VarWireBytes, 5_000, 2_500)
	controller.SetVarRegime(adapt.VarWireBytes, &deltaRegime)

	cl, err := New(Config{
		Mirrors: 2,
		Model:   lightModel,
		Params:  core.Params{CheckpointFreq: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Adapt(controller)

	front := httpfront.NewWithRegistry(cl.Central.Main(), cl.Obs)
	defer front.Close()
	front.SetStatus(cl.CentralStatus)
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr + "/cluster/status"

	// Scrapers run for the whole workload; every response must be a
	// well-formed document. Mirror documents are built concurrently too.
	const scrapers = 4
	stop := make(chan struct{})
	errc := make(chan error, scrapers)
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				var doc status.Document
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("scraper %d: %w", id, err)
					return
				}
				if doc.Role != "central" {
					errc <- fmt.Errorf("scraper %d: role %q", id, doc.Role)
					return
				}
				for m := range cl.Mirrors {
					if md := cl.MirrorStatus(m); md.Role != "mirror" {
						errc <- fmt.Errorf("scraper %d: mirror %d role %q", id, m, md.Role)
						return
					}
				}
			}
		}(i)
	}

	events := BuildEvents(Options{Flights: 20, UpdatesPerFlight: 50, EventSize: 128, Seed: 5})
	if err := cl.Feed(events); err != nil {
		t.Fatal(err)
	}
	cl.DrainAll()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The storm must not have perturbed the pipeline.
	if got := cl.Central.Stats().Mirrored; got != 1000 {
		t.Fatalf("Mirrored = %d, want 1000", got)
	}
	doc := cl.CentralStatus()
	if doc.Checkpoint == nil || doc.Checkpoint.Commits == 0 {
		t.Fatalf("no checkpoint progress after the run: %+v", doc.Checkpoint)
	}
}
