package adaptmirror_test

import (
	"fmt"
	"log"
	"time"

	"adaptmirror"
)

// lightModel keeps example output deterministic and fast.
var lightModel = adaptmirror.CostModel{
	EventBase:      2 * time.Microsecond,
	SerializeBase:  500 * time.Nanosecond,
	FramePerEvent:  500 * time.Nanosecond,
	SubmitBase:     200 * time.Nanosecond,
	RequestBase:    5 * time.Microsecond,
	CheckpointBase: time.Microsecond,
}

// Example shows the minimal lifecycle: build a cluster, configure
// selective mirroring, stream events, and serve a thin client from a
// mirror.
func Example() {
	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{Mirrors: 1, Model: lightModel})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	cl.Central().InstallSelective(10)
	for i := uint64(1); i <= 100; i++ {
		cl.Central().Ingest(adaptmirror.NewPosition(1, i, 33.6, -84.4, 11000, 256))
	}
	cl.Drain()

	st := cl.Central().Stats()
	fmt.Printf("mirrored %d of %d events\n", st.Mirrored, st.Received)
	// Output: mirrored 10 of 100 events
}

// ExampleCentral_SetComplexTuple demonstrates the paper's complex-tuple
// rule: the arrival sequence collapses into one 'flight arrived' event.
func ExampleCentral_SetComplexTuple() {
	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{Mirrors: 1, Model: lightModel})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	cl.Central().SetComplexTuple(
		[]adaptmirror.Status{adaptmirror.StatusLanded, adaptmirror.StatusAtRunway, adaptmirror.StatusAtGate},
		adaptmirror.TypeFlightArrived)

	cl.Central().Ingest(adaptmirror.NewStatus(7, 1, adaptmirror.StatusLanded, 64))
	cl.Central().Ingest(adaptmirror.NewStatus(7, 2, adaptmirror.StatusAtRunway, 64))
	cl.Central().Ingest(adaptmirror.NewStatus(7, 3, adaptmirror.StatusAtGate, 64))
	cl.Drain()

	st := cl.Central().Stats()
	fmt.Printf("3 status events in, %d complex event mirrored\n", st.Mirrored)
	// Output: 3 status events in, 1 complex event mirrored
}

// ExampleCluster_NewAdaptation wires the runtime adaptation mechanism:
// crossing the pending-request threshold installs the degraded regime.
func ExampleCluster_NewAdaptation() {
	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{Mirrors: 1, Model: lightModel})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	fn1 := adaptmirror.Regime{ID: 1, Name: "normal", Coalesce: true, MaxCoalesce: 10, CheckpointFreq: 50}
	fn2 := adaptmirror.Regime{ID: 2, Name: "degraded", Coalesce: true, MaxCoalesce: 20, OverwriteLen: 20, CheckpointFreq: 100}
	ctl := cl.NewAdaptation(fn1, fn2, 100, 40)

	fmt.Printf("engaged: %v, regime: %s\n", ctl.Engaged(), ctl.Current().Name)
	// Output: engaged: false, regime: normal
}
