package check

import (
	"fmt"
	"io"
	"slices"
	"time"

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
// mid-lease, and the remote checkpoint tier suffers outages and
// in-flight corruption in both directions. All healable by
// construction — kills are bounded per cell by KillAttempts, and the
// remote tier is a cache the store degrades away from.
var sweepPlan = faults.Plan{
	WorkerKill:   0.6,
	KillAttempts: 1,
	NetGet:       0.25,
	NetPut:       0.25,
	NetCorrupt:   0.3,
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
	// Corrupting a remote GET body needs a cross-worker checkpoint hit,
	// which 2-worker schedules rarely produce before the injected put
	// failures switch the remote tier off (the kind keeps its dedicated
	// pin in internal/sweep's TestRemoteTierFaultMatrix): it is required
	// only when the matrix has enough workers to make hits likely.
	seeds := []uint64{1, 2}
	if len(o.Workers) < 2 {
		seeds = []uint64{1, 2, 3, 4}
	}
	kinds := []faults.Kind{faults.WorkerKill, faults.NetGet, faults.NetPut}
	if slices.Max(o.Workers) >= 4 {
		kinds = append(kinds, faults.NetCorrupt)
	}

	sweeps := DistSweep{
		Scale:      artifactScale,
		Benchmarks: artifactBenchmarks,
		Poll:       25 * time.Millisecond,
		Progress:   o.Progress,
		Account:    sweepAccounting,
	}
	var injectors []*faults.Injector
	var prev *DistSweepResult
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

// sweepAccounting is the accounting of a sweep whose coordinator never
// restarts.
func sweepAccounting(res *DistSweepResult) error {
	// Exactly-once: every cell completed exactly once, no matter how many
	// kills, re-issues, and duplicate executions the schedule produced;
	// and when kills fired, re-issues must have too (the kill path is
	// live, not vacuous).
	if res.Completions != uint64(res.Cells) {
		return fmt.Errorf("exactly-once violated: %d completions for %d cells (%+v)",
			res.Completions, res.Cells, res.Coord)
	}
	if res.Abandons > 0 && res.Reissues == 0 {
		return fmt.Errorf("%d kills but no lease re-issues (%+v)", res.Abandons, res.Coord)
	}
	// Warm-checkpoint sharing: workers run without local disk tiers, so
	// any sweep at these scales must have mirrored deposits into the
	// coordinator store.
	if res.Store.Puts == 0 {
		return fmt.Errorf("no checkpoints reached the shared remote tier (%s)", res.Store)
	}
	return nil
}
