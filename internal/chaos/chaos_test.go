package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/jsonl"
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
}

// TestTearWAL pins the tear model: damage is clamped so it never
// reaches past the start of the final line — earlier entries were
// acknowledged single writes, which only the last can lose.
func TestTearWAL(t *testing.T) {
	dir := t.TempDir()
	lines := "{\"kind\":\"epoch\"}\n{\"kind\":\"grant\"}\n{\"kind\":\"complete\"}\n"
	write := func() string {
		p := filepath.Join(dir, "t.wal")
		if err := os.WriteFile(p, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	read := func(p string) string {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	p := write()
	if err := jsonl.Tear(p, 5); err != nil {
		t.Fatal(err)
	}
	got := read(p)
	if got != lines[:len(lines)-5] {
		t.Fatalf("tear 5: got %q", got)
	}

	// A huge tear must stop at the start of the final line, keeping every
	// earlier entry intact.
	p = write()
	if err := jsonl.Tear(p, 10_000); err != nil {
		t.Fatal(err)
	}
	got = read(p)
	want := lines[:strings.LastIndex(strings.TrimSuffix(lines, "\n"), "\n")+1]
	if got != want {
		t.Fatalf("clamped tear: got %q, want %q", got, want)
	}
	if !strings.HasSuffix(got, "{\"kind\":\"grant\"}\n") {
		t.Fatalf("clamped tear damaged an acknowledged entry: %q", got)
	}

	// Empty files tear to nothing, quietly.
	p = filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Tear(p, 64); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorKilledMidSweep is the PR's acceptance test: a sweep
// whose coordinator is SIGKILLed twice mid-run (with WAL tail tears)
// and restarted against the same directory must produce a merged
// journal byte-identical to an uninterrupted run's — and the restarts
// must resume from the WAL, re-executing strictly less than a full
// redo per incarnation. Artifact identity against the sequential
// golden, journal identity and the exactly-once/re-execution bounds are
// asserted inside check.DistSweep.Run for both runs.
func TestCoordinatorKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	const seed = 7
	sweeps := newSweeps(Options{})

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

// TestExplore runs a short seeded exploration end to end — the
// diffcheck -chaos path — asserting every schedule's invariants hold.
func TestExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	var buf bytes.Buffer
	if err := ExploreWith(Options{Seed: 1, Schedules: 2, Progress: &buf}); err != nil {
		t.Fatalf("ExploreWith: %v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "ok:"); got != 2 {
		t.Fatalf("progress reported %d schedules, want 2:\n%s", got, buf.String())
	}
}
