// Package chaos explores seeded fault schedules against the distributed
// sweep service. Where check.SweepEquivalence injects faults at a
// handful of hand-picked sites, chaos generates whole *schedules* — a
// deterministic mix of worker kills at arbitrary deliveries,
// coordinator kill/restart at arbitrary WAL offsets (with optional WAL
// tail tears modelling the ack-before-fsync window of a host crash) and
// network faults on the remote checkpoint tier — and runs each schedule
// as one full sweep over an httptest loopback, with the coordinator
// actually killed and restarted from its write-ahead log mid-sweep. A
// schedule draws only faults that can fire there: the workers have no
// disk checkpoint tier, so the network faults are upload outages.
//
// Per schedule it asserts the repo's strongest invariants:
//
//   - the merged journal renders artifacts byte-identical to a
//     sequential fault-free run, executing zero cells (no lost records);
//   - the merged journal is byte-identical across every schedule;
//   - exactly-once completion accounting within tear-explained slack;
//   - re-execution count bounded by the kills the schedule fired;
//   - the schedule was non-vacuous: its deterministic fault kinds fired.
//
// Everything is a pure function of (seed, schedule index), so a failing
// schedule replays exactly from its seed.
package chaos

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/faults"
)

// Options configures ExploreWith.
type Options struct {
	// Seed keys every schedule; schedule i draws its plan from
	// (Seed, i), so one seed names the whole exploration.
	Seed uint64
	// Schedules is how many fault schedules to run (default 8).
	Schedules int
	// Progress, when non-nil, receives per-schedule summary lines (and
	// worker progress when Verbose).
	Progress io.Writer
	// Verbose forwards worker progress lines to Progress.
	Verbose bool
}

// The sweep every schedule runs: one benchmark — six cells, enough WAL
// traffic for every kill target while keeping a multi-schedule run fast
// — shared by three workers.
const (
	scale   = 50_000
	workers = 3
)

var benchmarks = []string{"gzip"}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SchedulePlan draws schedule i's fault plan from the exploration seed
// — a pure function, so a schedule is reproducible from (seed, i)
// alone. Every schedule carries at least one deterministic fault
// source: three of four have coordinator kills (with WAL tears on half
// of those), and every fourth instead kills every cell's first
// delivery; network fault rates vary independently on top.
func SchedulePlan(seed uint64, i int) faults.Plan {
	h := splitmix64(seed ^ splitmix64(uint64(i)*0x9e3779b97f4a7c15+1))
	p := faults.Plan{
		WorkerKill:   []float64{0, 0.5, 1.0}[(h>>24)%3],
		KillAttempts: 1,
	}
	if i%4 == 3 {
		// Coordinator-stable schedule: worker kills alone must hold the
		// invariants (and it pins that a WAL-backed coordinator with no
		// restarts behaves exactly like the in-memory one).
		p.WorkerKill = 1.0
	} else {
		p.CoordKills = 1 + int(h%2)
		p.CoordKillWindow = 3 + int((h>>8)%2)
		if (h>>16)%2 == 0 {
			p.WALTear = 1.0
		}
	}
	if (h>>32)%2 == 0 {
		p.NetPut = 0.25
	}
	return p
}

// ExploreWith runs the chaos exploration with explicit options.
func ExploreWith(o Options) error {
	if o.Schedules <= 0 {
		o.Schedules = 8
	}
	sweeps := newSweeps(o)
	var prev *check.DistSweepResult
	for i := 0; i < o.Schedules; i++ {
		inj := faults.New(o.Seed+uint64(i)*7919, SchedulePlan(o.Seed, i))
		sweeps.Injector = inj
		res, err := sweeps.Run(prev)
		if err != nil {
			return fmt.Errorf("chaos: schedule %d/%d: %w [%s]", i+1, o.Schedules, err, inj)
		}
		prev = res
		if o.Progress != nil {
			fmt.Fprintf(o.Progress,
				"chaos: schedule %d/%d ok: %d incarnations, %d executions for %d cells, %d completions, %d restored [%s]\n",
				i+1, o.Schedules, res.Incarnations, res.Executions, res.Cells,
				res.Completions, res.Restored, summarizeFired(inj.Fired()))
		}
	}
	return nil
}

func summarizeFired(fired map[faults.Kind]uint64) string {
	inj := ""
	for _, k := range []faults.Kind{faults.CoordinatorKill, faults.WALTear, faults.WorkerKill} {
		if fired[k] > 0 {
			inj += fmt.Sprintf("%s=%d ", k, fired[k])
		}
	}
	var rest uint64
	for k, n := range fired {
		switch k {
		case faults.CoordinatorKill, faults.WALTear, faults.WorkerKill:
		default:
			rest += n
		}
	}
	return fmt.Sprintf("%sother=%d", inj, rest)
}

// newSweeps is the sweep every schedule is one run of: a full
// distributed sweep with the run's injector applied — coordinator
// incarnations killed at WAL offsets and restarted from the log,
// workers killed at deliveries — under this harness's accounting and
// re-execution bounds. check.DistSweep.Run holds every run to the
// sequential run's artifacts and the previous run's merged journal, and
// requires the kills a plan makes certain to have fired.
func newSweeps(o Options) check.DistSweep {
	var progress io.Writer
	if o.Verbose {
		progress = o.Progress
	}
	return check.DistSweep{
		Scale:      scale,
		Benchmarks: benchmarks,
		Workers:    workers,
		WAL:        true,
		Poll:       10 * time.Millisecond,
		Progress:   progress,
		Account:    accounting,
	}
}

// accounting bounds a finished schedule's completions and executions by
// the faults that fired.
func accounting(res *check.DistSweepResult) error {
	// Exactly-once accounting, with tear-explained slack only: every
	// completion past one-per-cell must be bought by a WAL tear (the
	// lost record forces one re-completion), and completions may fall
	// short of the cell count only where a kill cut a worker's Complete
	// between its WAL entries and its acknowledgement (at most one
	// in-flight Complete per worker per kill).
	cells := uint64(res.Cells)
	if res.Completions > cells+res.Tears {
		return fmt.Errorf("exactly-once violated: %d completions for %d cells with %d tears",
			res.Completions, res.Cells, res.Tears)
	}
	if min := int64(cells) - int64(res.CoordKills)*int64(workers); int64(res.Completions) < min {
		return fmt.Errorf("lost completions: %d acked for %d cells (%d coordinator kills, %d workers)",
			res.Completions, res.Cells, res.CoordKills, workers)
	}

	// Re-execution bound: every execution past one-per-cell needs a
	// cause — a worker kill, a lease orphaned by a coordinator kill (at
	// most one per worker per kill), a torn record, or a TTL re-issue.
	reexec := int64(res.Executions) - int64(res.Cells)
	if reexec < 0 {
		return fmt.Errorf("%d executions for %d cells: cells completed without execution",
			res.Executions, res.Cells)
	}
	bound := int64(res.Abandons) + int64(res.CoordKills)*int64(workers) +
		int64(res.Tears) + int64(res.Reissues)
	if reexec > bound {
		return fmt.Errorf("re-executions unbounded by kills: %d extra executions > %d explained (%d worker kills, %d coord kills × %d workers, %d tears, %d reissues)",
			reexec, bound, res.Abandons, res.CoordKills, workers, res.Tears, res.Reissues)
	}
	return nil
}
