package check

import (
	"fmt"
	"io"

	"repro/internal/faults"
)

// SweepOptions configures SweepEquivalence.
type SweepOptions struct {
	// Workers lists the worker counts to check (default {2, 4}). Each
	// (worker count, injector seed) pair is one full distributed sweep.
	Workers []int
	// Progress, when non-nil, receives worker progress lines.
	Progress io.Writer
}

// sweepPlan is the sweep fault schedule: most first deliveries die
// mid-lease, and the remote checkpoint tier suffers upload outages. All
// healable by construction — kills are bounded per cell by
// KillAttempts, and the remote tier is a mirror the store stops sending
// to.
var sweepPlan = faults.Plan{
	WorkerKill:   0.6,
	KillAttempts: 1,
	NetPut:       0.25,
}

// SweepEquivalence pins the distributed sweep's whole contract: an
// N-worker sweep — under seeded worker kills mid-lease and remote
// checkpoint faults — produces (1) artifacts byte-identical to the
// sequential single-process run, (2) a merged journal byte-identical
// across every worker count, seed, and crash history, (3) exactly-once
// cell accounting (completions == cells, no matter how many kills and
// re-executions happened along the way), and (4) a merged journal
// complete enough that rendering from it executes nothing.
func SweepEquivalence(o SweepOptions) error {
	if len(o.Workers) == 0 {
		o.Workers = []int{2, 4}
	}
	// The fault kinds that must fire at least once across the matrix,
	// and the injector seeds that make them. A matrix narrowed to one
	// worker count sees fewer injector draws, so the seed set widens.
	seeds := []uint64{1, 2}
	if len(o.Workers) < 2 {
		seeds = []uint64{1, 2, 3, 4}
	}
	kinds := []faults.Kind{faults.WorkerKill, faults.NetPut}

	sweeps := distSweep{Benchmarks: artifactBenchmarks, Progress: o.Progress}
	var injectors []*faults.Injector
	var prev *distSweepResult
	for _, workers := range o.Workers {
		for _, seed := range seeds {
			inj := faults.New(seed, sweepPlan)
			injectors = append(injectors, inj)
			sweeps.Workers, sweeps.Injector = workers, inj
			res, err := sweeps.Run(prev)
			if err != nil {
				return fmt.Errorf("sweep-equivalence: %d workers, seed %d: %w [%s]", workers, seed, err, inj)
			}
			prev = res
		}
	}
	return requireFired("sweep-equivalence", kinds, injectors)
}
