package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestSchedulePlanDeterministic pins the schedule generator's contract:
// a plan is a pure function of (seed, index), every schedule carries a
// deterministic fault source, every fourth schedule is
// coordinator-stable, and the rest kill the coordinator.
func TestSchedulePlanDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := SchedulePlan(42, i), SchedulePlan(42, i)
		if a != b {
			t.Fatalf("schedule %d: nondeterministic plan:\n%+v\n%+v", i, a, b)
		}
		if i%4 == 3 {
			if a.CoordKills != 0 || a.WorkerKill != 1.0 {
				t.Fatalf("schedule %d must be coordinator-stable with certain worker kills, got %+v", i, a)
			}
		} else {
			if a.CoordKills < 1 || a.CoordKills > 2 {
				t.Fatalf("schedule %d: coordinator kills = %d, want 1 or 2", i, a.CoordKills)
			}
			if a.CoordKillWindow < 3 || a.CoordKillWindow > 4 {
				t.Fatalf("schedule %d: kill window = %d, want 3 or 4", i, a.CoordKillWindow)
			}
		}
	}
	// Different seeds must not collapse to one plan family.
	diff := 0
	for i := 0; i < 16; i++ {
		if SchedulePlan(1, i) != SchedulePlan(2, i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 generate identical schedules")
	}
	// Seed 1's first eight plans are pinned: `make chaos` runs them, and
	// a changed draw would replay a reported schedule as another one.
	pinned := []faults.Plan{
		{WorkerKill: 1, KillAttempts: 1, CoordKills: 1, CoordKillWindow: 3, WALTear: 1},
		{KillAttempts: 1, CoordKills: 2, CoordKillWindow: 4, WALTear: 1},
		{NetPut: 0.25, WorkerKill: 0.5, KillAttempts: 1, CoordKills: 1, CoordKillWindow: 4},
		{WorkerKill: 1, KillAttempts: 1},
		{NetPut: 0.25, WorkerKill: 0.5, KillAttempts: 1, CoordKills: 2, CoordKillWindow: 4, WALTear: 1},
		{WorkerKill: 0.5, KillAttempts: 1, CoordKills: 1, CoordKillWindow: 4, WALTear: 1},
		{NetPut: 0.25, WorkerKill: 1, KillAttempts: 1, CoordKills: 1, CoordKillWindow: 4},
		{NetPut: 0.25, WorkerKill: 1, KillAttempts: 1},
	}
	for i, want := range pinned {
		if got := SchedulePlan(1, i); got != want {
			t.Errorf("SchedulePlan(1, %d) = %+v, want %+v", i, got, want)
		}
	}
}

// TestCoordinatorKilledMidSweep pins WAL recovery end to end: a sweep
// whose coordinator is SIGKILLed twice mid-run (with WAL tail tears)
// and restarted against the same directory must produce a merged
// journal byte-identical to an uninterrupted run's — and the restarts
// must resume from the WAL, re-executing strictly less than a full
// redo per incarnation. Artifact identity against the sequential
// golden, journal identity and the exactly-once/re-execution bounds are
// asserted inside distSweep.Run for both runs.
func TestCoordinatorKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	const seed = 7
	sweeps := chaosSweep()

	// Uninterrupted distributed run: the journal bytes the crashy run
	// must reproduce.
	sweeps.Injector = faults.New(seed, faults.Plan{})
	plain, err := sweeps.Run(nil)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if plain.Incarnations != 1 || plain.CoordKills != 0 {
		t.Fatalf("uninterrupted run restarted: %+v", plain)
	}

	// Crashy run: two coordinator kills early in the WAL stream, each
	// followed by a torn tail — the ack-before-fsync window of a host
	// crash on top of the process kill.
	sweeps.Injector = faults.New(seed, faults.Plan{
		CoordKills:      2,
		CoordKillWindow: 6,
		WALTear:         1.0,
	})
	crashed, err := sweeps.Run(plain)
	if err != nil {
		t.Fatalf("crashy run: %v", err)
	}
	if crashed.CoordKills != 2 {
		t.Fatalf("coordinator killed %d times, want 2", crashed.CoordKills)
	}
	if crashed.Incarnations != 3 {
		t.Fatalf("%d incarnations for 2 kills, want 3", crashed.Incarnations)
	}
	if !bytes.Equal(crashed.Journal, plain.Journal) {
		t.Fatalf("merged journal diverges between crashy and uninterrupted runs (%d vs %d bytes)",
			len(crashed.Journal), len(plain.Journal))
	}
	// Strictly fewer re-executions than redoing the sweep once per
	// incarnation: each restart resumed from the WAL instead of starting
	// over.
	if full := crashed.Cells * crashed.Incarnations; crashed.Executions >= full {
		t.Fatalf("%d executions across %d incarnations (full redo = %d): restart did not resume",
			crashed.Executions, crashed.Incarnations, full)
	}
}

// TestChaosPlanLinesReplay runs one seed's exploration twice: the plan
// part of every schedule's progress line, everything before the "; ",
// must be the same both times and name SchedulePlan's plan, so two
// runs (or two commits) can be diffed on it. The tallies after it
// depend on worker interleaving and are not compared.
func TestChaosPlanLinesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	const schedules = 2
	var plans [2][]string
	for run := range plans {
		var buf bytes.Buffer
		if err := ChaosExploration(ChaosOptions{Seed: 1, Schedules: schedules, Progress: &buf}); err != nil {
			t.Fatalf("run %d: %v\n%s", run+1, err, buf.String())
		}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			head, _, ok := strings.Cut(line, "; ")
			if !ok {
				t.Fatalf("run %d: no plan part in %q", run+1, line)
			}
			plans[run] = append(plans[run], head)
		}
	}
	if len(plans[0]) != schedules {
		t.Fatalf("%d schedule lines, want %d: %q", len(plans[0]), schedules, plans[0])
	}
	for i := range plans[0] {
		if plans[0][i] != plans[1][i] {
			t.Errorf("schedule %d: plan part differs between runs:\n%s\n%s", i+1, plans[0][i], plans[1][i])
		}
		if want := fmt.Sprintf("plan %+v", SchedulePlan(1, i)); !strings.HasSuffix(plans[0][i], want) {
			t.Errorf("schedule %d: %q does not end with %q", i+1, plans[0][i], want)
		}
	}
}

// TestExplore runs a short seeded exploration end to end — the
// diffcheck -chaos path — asserting every schedule's invariants hold.
func TestExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	var buf bytes.Buffer
	if err := ChaosExploration(ChaosOptions{Seed: 1, Schedules: 2, Progress: &buf}); err != nil {
		t.Fatalf("ChaosExploration: %v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "ok:"); got != 2 {
		t.Fatalf("progress reported %d schedules, want 2:\n%s", got, buf.String())
	}
}
