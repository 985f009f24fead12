package faultinject

import (
	"fmt"
	"math/rand"
)

// Schedule is one chaos run's fault plan, derived deterministically
// from a seed: which mirror crashes and when, which mirror runs slow,
// and what probabilistic faults the control links suffer. Positions
// are expressed as fractions of the event stream (and protocol
// rounds), never wall time, so the same seed yields the same schedule
// at any machine speed.
type Schedule struct {
	// Seed reproduces the schedule (and the per-link decision streams
	// of a Plane built with it).
	Seed int64

	// CrashMirror is the index of the mirror that crash-restarts.
	CrashMirror int
	// CrashAfterFrac is the fraction of the event stream fed before
	// the crash (its links partition and its volatile state is lost).
	CrashAfterFrac float64
	// DownFrac is the fraction of the event stream fed while the
	// mirror is down, after its exclusion from the quorum and before
	// its recovery + rejoin.
	DownFrac float64

	// SlowMirror is the index of a mirror whose CPU is skewed slower
	// for the run, or -1. It is always distinct from CrashMirror.
	SlowMirror int
	// SlowFactor multiplies the slow mirror's control-handling cost
	// (the paper's "slow mirror site" disturbance).
	SlowFactor int

	// CtrlFaults are the probabilistic faults applied to every
	// control link (both directions). Data links get none of these:
	// the framework assumes ordered exactly-once data delivery to
	// live mirrors, so data links only crash or partition.
	CtrlFaults Faults

	// CrashCentral selects the central-crash schedule class: the
	// central site (not a mirror) dies at CrashAfterFrac and a mirror
	// takes its place (see Election). CrashMirror is -1 and
	// DownFrac is 0 in this class — the old central never returns.
	CrashCentral bool
	// Election selects how the central-crash class replaces the
	// central: false promotes the designated standby mirror directly,
	// true has the mirrors elect the new central among themselves.
	Election bool
}

// NewSchedule derives the fault plan for a cluster of the given mirror
// count. Every field is a pure function of (seed, mirrors).
func NewSchedule(seed int64, mirrors int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{
		Seed:           seed,
		CrashMirror:    rng.Intn(mirrors),
		CrashAfterFrac: 0.15 + 0.35*rng.Float64(), // crash in the first half
		DownFrac:       0.10 + 0.25*rng.Float64(), // stay down a while, rejoin with stream left
		SlowMirror:     -1,
		CtrlFaults: Faults{
			Drop:      0.10 * rng.Float64(),
			Duplicate: 0.10 * rng.Float64(),
			Reorder:   0.10 * rng.Float64(),
			Corrupt:   0.05 * rng.Float64(),
		},
	}
	if mirrors > 1 && rng.Float64() < 0.5 {
		slow := rng.Intn(mirrors - 1)
		if slow >= s.CrashMirror {
			slow++
		}
		s.SlowMirror = slow
		s.SlowFactor = 2 + rng.Intn(7)
	}
	return s
}

// NewCentralCrashSchedule derives a fault plan in which the central
// site itself dies and a mirror takes over. It draws from
// its own rng stream (independent of NewSchedule, whose seeded draws
// are pinned by the deterministic-replay tests): the crash lands past
// the first quarter of the stream so at least one checkpoint round
// commits before failover, control faults are kept milder than the
// mirror-crash class (the detection path itself rides control links),
// and no mirror crashes — the only site that dies is the central.
func NewCentralCrashSchedule(seed int64, mirrors int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{
		Seed:           seed,
		CrashCentral:   true,
		CrashMirror:    -1,
		CrashAfterFrac: 0.25 + 0.40*rng.Float64(), // past the first commit, stream left to replay
		SlowMirror:     -1,
		CtrlFaults: Faults{
			Drop:      0.08 * rng.Float64(),
			Duplicate: 0.08 * rng.Float64(),
			Reorder:   0.08 * rng.Float64(),
			Corrupt:   0.04 * rng.Float64(),
		},
	}
	if mirrors > 1 && rng.Float64() < 0.5 {
		// Never slow mirror 0: it is the promotion candidate, and a
		// slow standby would stretch detection, not test anything new.
		s.SlowMirror = 1 + rng.Intn(mirrors-1)
		s.SlowFactor = 2 + rng.Intn(7)
	}
	// Drawn last so every earlier field keeps its seeded value.
	s.Election = rng.Float64() < 0.5
	return s
}

// String renders the schedule for failure reports and the fault
// matrix.
func (s Schedule) String() string {
	slow := "none"
	if s.SlowMirror >= 0 {
		slow = fmt.Sprintf("mirror%d x%d", s.SlowMirror, s.SlowFactor)
	}
	if s.CrashCentral {
		mode := "standby"
		if s.Election {
			mode = "election"
		}
		return fmt.Sprintf(
			"seed=%d crash=central@%.0f%% promote=%s slow=%s ctrl{drop=%.3f dup=%.3f reorder=%.3f corrupt=%.3f}",
			s.Seed, 100*s.CrashAfterFrac, mode, slow,
			s.CtrlFaults.Drop, s.CtrlFaults.Duplicate, s.CtrlFaults.Reorder, s.CtrlFaults.Corrupt)
	}
	return fmt.Sprintf(
		"seed=%d crash=mirror%d@%.0f%% down=%.0f%% slow=%s ctrl{drop=%.3f dup=%.3f reorder=%.3f corrupt=%.3f}",
		s.Seed, s.CrashMirror, 100*s.CrashAfterFrac, 100*s.DownFrac, slow,
		s.CtrlFaults.Drop, s.CtrlFaults.Duplicate, s.CtrlFaults.Reorder, s.CtrlFaults.Corrupt)
}
