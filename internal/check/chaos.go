package check

import (
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/mix"
)

// ChaosOptions configures ChaosExploration.
type ChaosOptions struct {
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

// SchedulePlan draws schedule i's fault plan from the exploration seed
// — a pure function, so a schedule is reproducible from (seed, i)
// alone. Every schedule carries at least one deterministic fault
// source: three of four have coordinator kills (with WAL tears on half
// of those), and every fourth instead kills every cell's first
// delivery; upload outages vary independently on top. A schedule draws
// only faults that can fire: the workers have no disk checkpoint tier.
func SchedulePlan(seed uint64, i int) faults.Plan {
	h := mix.NewRNG(seed ^ mix.NewRNG(uint64(i)*0x9e3779b97f4a7c15+1).Next()).Next()
	p := faults.Plan{
		WorkerKill:   []float64{0, 0.5, 1.0}[(h>>24)%3],
		KillAttempts: 1,
	}
	if i%4 == 3 {
		// Coordinator-stable schedule: worker kills alone must hold the
		// invariants.
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

// ChaosExploration explores seeded fault schedules against the
// distributed sweep. Where SweepEquivalence kills workers only, each
// schedule here is a deterministic mix of worker kills at arbitrary
// deliveries, coordinator kill/restart at arbitrary WAL offsets (with
// optional WAL tail tears modelling the ack-before-fsync window of a
// host crash) and checkpoint upload outages, run as one full sweep
// whose coordinator is actually killed and restarted from its log.
// Every schedule is held by distSweep.Run to the sequential run's
// artifacts, to the previous schedule's merged journal, to the
// accounting bounds the fired faults explain, and to its certain faults
// having fired. A failing schedule replays exactly from (Seed, i).
func ChaosExploration(o ChaosOptions) error {
	if o.Schedules <= 0 {
		o.Schedules = 8
	}
	sweeps := chaosSweep()
	if o.Verbose {
		sweeps.Progress = o.Progress
	}
	var prev *distSweepResult
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
				res.Completions, res.Restored, inj)
		}
	}
	return nil
}

// chaosSweep is the sweep every chaos schedule is one run of: one
// benchmark — six cells, enough WAL traffic for every kill target while
// keeping a multi-schedule run fast — shared by three workers.
func chaosSweep() distSweep {
	return distSweep{Benchmarks: []string{"gzip"}, Workers: 3}
}
