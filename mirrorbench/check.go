package main

import (
	"bytes"
	"fmt"

	"adaptmirror/internal/core"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// statePadding is mirrord's default -padding: the reference state and
// every decode must use the sites' per-flight record size.
const statePadding = 64

// keepPositions is how many trailing positions per flight a selective
// mirror may legitimately hold: with overwrite length 10, a mirror
// lags the central by at most nine position reports of a flight.
const keepPositions = 10

// reference is what the sites must converge to, computed in-process
// from the same seeded trace.
type reference struct {
	// snapshot is the /init body of an EDE that applied the whole trace.
	snapshot []byte
	// counts is the per-stream event count: the anchor a site reports
	// once it has applied everything.
	counts vclock.VC
	// positions holds each flight's last keepPositions reported
	// positions, oldest first.
	positions map[event.FlightID][][3]float64
	// mirrorWeight is the event weight every mirror applies: the
	// trace length, less the trailing positions an overwrite rule
	// holds back.
	mirrorWeight float64
	// cum[s][p] counts the stream-s events among the first p.
	cum [][]uint64
}

// buildReference applies the trace to an in-process EDE and, with
// overwrite > 1, to the selective mirroring filter.
func buildReference(events []*event.Event, streams, overwrite int) reference {
	en := ede.New(ede.Config{StatePadding: statePadding})
	sem := core.NewSemantics()
	sem.SetOverwrite(event.TypeFAAPosition, overwrite)
	ref := reference{counts: vclock.New(streams), positions: map[event.FlightID][][3]float64{}, cum: make([][]uint64, streams)}
	for s := range ref.cum {
		ref.cum[s] = make([]uint64, 1, len(events)+1)
	}
	for _, e := range events {
		en.Process(e.Clone())
		if m := sem.FilterForMirror(e.Clone()); m != nil {
			ref.mirrorWeight += float64(m.Weight())
		}
		ref.counts = ref.counts.Tick(int(e.Stream))
		for s := range ref.cum {
			ref.cum[s] = append(ref.cum[s], ref.counts.At(s))
		}
		if lat, lon, alt, ok := e.Position(); ok && e.Type == event.TypeFAAPosition {
			p := append(ref.positions[e.Flight], [3]float64{lat, lon, alt})
			if len(p) > keepPositions {
				p = p[1:]
			}
			ref.positions[e.Flight] = p
		}
	}
	ref.snapshot = en.State().Snapshot()
	return ref
}

// prefix is the anchor of a site that has applied the first applied
// trace events, in trace order.
func (ref reference) prefix(applied float64) vclock.VC {
	p := min(max(int(applied), 0), len(ref.cum[0])-1)
	vt := vclock.New(len(ref.cum))
	for s := range ref.cum {
		vt[s] = ref.cum[s][p]
	}
	return vt
}

// sameBytes reports where two /init bodies first differ.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: %d bytes differ from the expected %d bytes at offset %d", what, len(got), len(want), i)
}

// checkSelective accepts a selectively mirrored state: every flight's
// lifecycle fields equal the central's, and its position is one of the
// flight's last keepPositions positions in the trace.
func (ref reference) checkSelective(what string, mirror, central []byte) error {
	m, err := ede.DecodeSnapshot(mirror, statePadding)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	c, err := ede.DecodeSnapshot(central, statePadding)
	if err != nil {
		return fmt.Errorf("%s: central: %w", what, err)
	}
	if len(m) != len(c) {
		return fmt.Errorf("%s: %d flights, central has %d", what, len(m), len(c))
	}
	for id, cf := range c {
		mf, ok := m[id]
		switch {
		case !ok:
			return fmt.Errorf("%s: flight %d missing", what, id)
		case mf.Status != cf.Status || mf.PaxBoarded != cf.PaxBoarded || mf.Arrived != cf.Arrived:
			return fmt.Errorf("%s: flight %d lifecycle (%v,%d,%v) differs from central (%v,%d,%v)",
				what, id, mf.Status, mf.PaxBoarded, mf.Arrived, cf.Status, cf.PaxBoarded, cf.Arrived)
		}
		recent := ref.positions[id]
		found := len(recent) == 0 && mf.Lat == 0 && mf.Lon == 0 && mf.Alt == 0
		for _, p := range recent {
			if p == [3]float64{mf.Lat, mf.Lon, mf.Alt} {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: flight %d position (%g,%g,%g) is not among its last %d", what, id, mf.Lat, mf.Lon, mf.Alt, keepPositions)
		}
	}
	return nil
}

// anchorTracker checks that the anchors one site serves never go
// backwards in any stream.
type anchorTracker struct{ last vclock.VC }

func (a *anchorTracker) observe(vt vclock.VC) error {
	for s := range a.last {
		if vt.At(s) < a.last[s] {
			return fmt.Errorf("anchor %v went backwards from %v", vt, a.last)
		}
	}
	a.last = vt.Clone()
	return nil
}

// covers reports whether anchor vt accounts for every event of counts.
func covers(vt, counts vclock.VC) bool {
	for s := range counts {
		if vt.At(s) < counts[s] {
			return false
		}
	}
	return true
}
