// Command chaosrunner drives the deterministic chaos suite from the
// shell: each seed fully determines a fault schedule and a workload,
// runs them against an in-process cluster, and machine-checks the
// mirroring invariants. Two schedule classes exist: "mirror" (a mirror
// crash-restarts, links partition, control links misbehave, one mirror
// runs slow) and "central" (the central site itself dies mid-run and
// the mirrors' takeover runtimes promote the standby or, depending on
// the seed, elect a new central). A failing seed prints its
// schedule and replays exactly with -seed (see scripts/chaos_repro.sh).
//
//	chaosrunner -seeds 32                 # seeds 1..32, mirror class
//	chaosrunner -seeds 32 -class central  # central-crash class
//	chaosrunner -seeds 32 -class all      # both classes per seed
//	chaosrunner -seed 1337                # one seed, verbose schedule
//	chaosrunner -seeds 8 -mirrors 5       # wider cluster
package main

import (
	"flag"
	"fmt"
	"os"

	"adaptmirror/internal/cluster"
)

func main() {
	seeds := flag.Int("seeds", 32, "run seeds 1..N")
	seed := flag.Int64("seed", 0, "run exactly this seed (overrides -seeds)")
	mirrors := flag.Int("mirrors", 3, "mirror sites per run")
	flights := flag.Int("flights", 0, "workload flights (0 = default)")
	class := flag.String("class", "mirror", "schedule class: mirror, central, or all")
	verbose := flag.Bool("v", false, "print every run, not just failures")
	flag.Parse()

	var central []bool
	switch *class {
	case "mirror":
		central = []bool{false}
	case "central":
		central = []bool{true}
	case "all":
		central = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "chaosrunner: unknown -class %q (want mirror, central, or all)\n", *class)
		os.Exit(2)
	}

	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
		*verbose = true
	} else {
		for s := int64(1); s <= int64(*seeds); s++ {
			list = append(list, s)
		}
	}

	runs, failed := 0, 0
	modes := map[bool]int{} // central-crash runs by Schedule.Election
	for _, crashCentral := range central {
		for _, s := range list {
			runs++
			res := cluster.RunChaos(cluster.ChaosConfig{
				Seed:         s,
				Mirrors:      *mirrors,
				Flights:      *flights,
				CentralCrash: crashCentral,
			})
			if crashCentral {
				modes[res.Schedule.Election]++
			}
			if res.Failed() {
				failed++
				fmt.Println(res.Report())
				continue
			}
			if *verbose {
				fmt.Println(res.Report())
			}
		}
	}

	fmt.Printf("chaos: %d/%d runs passed\n", runs-failed, runs)
	if len(modes) > 0 {
		fmt.Printf("chaos: central-crash failover by standby promotion %d, by election %d\n", modes[false], modes[true])
	}
	if failed > 0 {
		os.Exit(1)
	}
}
