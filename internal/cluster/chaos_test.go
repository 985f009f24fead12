package cluster

import (
	"strconv"
	"testing"

	"adaptmirror/internal/faultinject"
	"adaptmirror/internal/obs"
)

// TestChaosSeeds runs the chaos harness over a spread of seeds: each
// run crashes and restarts a mirror, partitions its links, injects
// probabilistic control-link faults, and skews one mirror's CPU, then
// machine-checks the four safety invariants (monotone commits, backup
// integrity, byte-for-byte convergence, latency envelope).
func TestChaosSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11, 42, 1337, 99991}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(ChaosConfig{Seed: seed}.name(), func(t *testing.T) {
			res := RunChaos(ChaosConfig{Seed: seed})
			if res.Failed() {
				t.Fatal(res.Report())
			}
			if res.Commits == 0 {
				t.Fatalf("no commits landed: %s", res.Report())
			}
			if res.Replayed < 0 {
				t.Fatalf("bad replay count: %s", res.Report())
			}
		})
	}
}

func (c ChaosConfig) name() string {
	return "seed=" + strconv.FormatInt(c.Seed, 10)
}

// TestChaosCentralCrashPromotion runs the central-crash schedule
// class over a spread of seeds: the central site itself dies mid-run,
// the mirrors' takeover runtimes promote the standby or elect a new
// central (the seed picks which), and the run continues —
// survivors re-pointed, ingest resumed, the adaptation ramp and the
// delta-lag scenario exercised against the promoted central.
// Invariant 7 (promotion is lossless and monotone) is machine-checked
// inside the harness at the promotion instant and after drain; this
// test additionally pins the promotion's observable contract: exactly
// one promotion per run, the cluster ends in epoch 1, commits land
// under the new central (the forced pre-crash commit plus continued
// ingest means every seed demonstrates zero committed-event loss, not
// just one), and the audit log records the handover.
func TestChaosCentralCrashPromotion(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11, 42, 1337, 99991}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("central-seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			res := RunChaos(ChaosConfig{Seed: seed, CentralCrash: true})
			if res.Failed() {
				t.Fatal(res.Report())
			}
			if !res.Schedule.CrashCentral {
				t.Fatalf("schedule is not central-crash class: %s", res.Schedule)
			}
			if res.Promotions != 1 {
				t.Fatalf("promotions = %d, want 1: %s", res.Promotions, res.Report())
			}
			if res.CentralEpoch != 1 {
				t.Fatalf("central epoch = %d, want 1: %s", res.CentralEpoch, res.Report())
			}
			if res.Commits == 0 {
				t.Fatalf("no commits landed under the promoted central: %s", res.Report())
			}
			var promo *obs.AuditEntry
			for i := range res.Audit {
				if res.Audit[i].Action == "promotion" {
					if promo != nil {
						t.Fatalf("audit records more than one promotion: %s", res.Report())
					}
					promo = &res.Audit[i]
				}
			}
			if promo == nil {
				t.Fatalf("audit log has no promotion entry: %s", res.Report())
			}
			if promo.OldCentral != "central" || promo.NewCentral == "" || promo.Epoch != 1 {
				t.Fatalf("promotion audit entry malformed: %+v", *promo)
			}
		})
	}
}

// TestChaosCentralCrashScheduleClass spot-checks the central-crash
// schedule generator: the class is marked, the crash position stays in
// the configured band, the old central never returns (no down window
// to wait out), the slow-mirror pick never lands on mirror 0 — the
// standby-mode promotion candidate — and the seeds cover both standby
// promotion and election.
func TestChaosCentralCrashScheduleClass(t *testing.T) {
	modes := map[bool]bool{}
	for seed := int64(0); seed < 64; seed++ {
		sched := faultinject.NewCentralCrashSchedule(seed, 3)
		if !sched.CrashCentral {
			t.Fatalf("seed %d: schedule not marked central-crash", seed)
		}
		if sched.CrashMirror != -1 {
			t.Fatalf("seed %d: central-crash schedule also crashes mirror %d", seed, sched.CrashMirror)
		}
		if sched.DownFrac != 0 {
			t.Fatalf("seed %d: central-crash schedule has a down window %v", seed, sched.DownFrac)
		}
		if sched.CrashAfterFrac < 0.25 || sched.CrashAfterFrac > 0.65 {
			t.Fatalf("seed %d: crash position %v outside [0.25, 0.65]", seed, sched.CrashAfterFrac)
		}
		if sched.SlowMirror == 0 {
			t.Fatalf("seed %d: slow mirror is the promotion candidate", seed)
		}
		modes[sched.Election] = true
	}
	if !modes[false] || !modes[true] {
		t.Errorf("failover modes not covered: standby=%v election=%v", modes[false], modes[true])
	}
}

// TestChaosDeterministicReplay is the repro contract: the same seed
// produces the same fault schedule, the same verdict, and the same
// final central state digest, so a failing seed from CI replays
// exactly via scripts/chaos_repro.sh.
func TestChaosDeterministicReplay(t *testing.T) {
	const seed = 4242
	a := RunChaos(ChaosConfig{Seed: seed})
	b := RunChaos(ChaosConfig{Seed: seed})
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("schedule not deterministic:\n  %s\n  %s", a.Schedule, b.Schedule)
	}
	if a.Failed() != b.Failed() {
		t.Fatalf("verdict not deterministic:\n  %s\n  %s", a.Report(), b.Report())
	}
	if a.StateDigest != b.StateDigest {
		t.Fatalf("final state digest not deterministic: %016x vs %016x",
			a.StateDigest, b.StateDigest)
	}
	if a.Failed() {
		t.Fatal(a.Report())
	}

	// Same contract for the central-crash class, pinned for one seed
	// of each failover mode: the crash position, the detection, the
	// election or standby promotion, and everything the promoted
	// central ingests are all seed-determined, so verdict and digest
	// replay exactly — the crash-position quiesce in promoteCentral and
	// the virtual-clock failover drive exist precisely to keep this
	// true.
	for _, tc := range []struct {
		seed     int64
		election bool
	}{{seed, true}, {seed + 1, false}} {
		ca := RunChaos(ChaosConfig{Seed: tc.seed, CentralCrash: true})
		cb := RunChaos(ChaosConfig{Seed: tc.seed, CentralCrash: true})
		if ca.Schedule.Election != tc.election {
			t.Fatalf("seed %d no longer draws election=%v: %s", tc.seed, tc.election, ca.Schedule)
		}
		if ca.Schedule.String() != cb.Schedule.String() {
			t.Fatalf("central-crash schedule not deterministic:\n  %s\n  %s", ca.Schedule, cb.Schedule)
		}
		if ca.Failed() != cb.Failed() {
			t.Fatalf("central-crash verdict not deterministic:\n  %s\n  %s", ca.Report(), cb.Report())
		}
		if ca.StateDigest != cb.StateDigest {
			t.Fatalf("central-crash state digest not deterministic: %016x vs %016x",
				ca.StateDigest, cb.StateDigest)
		}
		if ca.Failed() {
			t.Fatal(ca.Report())
		}
		if ca.Promotions != 1 || cb.Promotions != 1 {
			t.Fatalf("central-crash replay promotions %d/%d, want 1/1", ca.Promotions, cb.Promotions)
		}
	}
}

// TestChaosAdaptationScenario pins the adaptation leg of the chaos
// run: the overload ramp engages the degraded regime, the calm tail's
// per-site revert rule brings the cluster back to baseline (so the
// run ends with the controller on regime 1), and the convergence
// invariant holds with the dup/reorder-heavy control links having
// produced at least one watermark rejection somewhere in the seed
// range — proving the stale-directive path is actually exercised, not
// just tolerated.
func TestChaosAdaptationScenario(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var stale uint64
	for _, seed := range seeds {
		res := RunChaos(ChaosConfig{Seed: seed})
		if res.Failed() {
			t.Fatal(res.Report())
		}
		if res.Engages == 0 {
			t.Fatalf("seed %d: overload ramp never engaged: %s", seed, res.Report())
		}
		if res.Reverts == 0 {
			t.Fatalf("seed %d: calm tail never reverted: %s", seed, res.Report())
		}
		stale += res.StaleDirectives
	}
	if stale == 0 {
		t.Errorf("no seed produced a watermark-rejected directive; dup/reorder faults not reaching the applier")
	}
}

// TestChaosScheduleCoversFaultClasses spot-checks that schedules over
// a seed range actually exercise every probabilistic fault class and
// pick distinct crash/slow victims — the suite is only as good as the
// schedules it draws.
func TestChaosScheduleCoversFaultClasses(t *testing.T) {
	victims := map[int]bool{}
	slow := map[int]bool{}
	var anyDrop, anyDup, anyReorder, anyCorrupt bool
	for seed := int64(0); seed < 64; seed++ {
		sched := faultinject.NewSchedule(seed, 3)
		victims[sched.CrashMirror] = true
		if sched.SlowMirror >= 0 {
			slow[sched.SlowMirror] = true
		}
		if sched.CtrlFaults.Drop > 0 {
			anyDrop = true
		}
		if sched.CtrlFaults.Duplicate > 0 {
			anyDup = true
		}
		if sched.CtrlFaults.Reorder > 0 {
			anyReorder = true
		}
		if sched.CtrlFaults.Corrupt > 0 {
			anyCorrupt = true
		}
	}
	if len(victims) < 3 {
		t.Errorf("crash victims not spread across mirrors: %v", victims)
	}
	if len(slow) == 0 {
		t.Error("no schedule ever picked a slow mirror")
	}
	if !anyDrop || !anyDup || !anyReorder || !anyCorrupt {
		t.Errorf("fault classes not covered: drop=%v dup=%v reorder=%v corrupt=%v",
			anyDrop, anyDup, anyReorder, anyCorrupt)
	}
}
