package check

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/faults"
)

// SweepOptions configures SweepEquivalence.
type SweepOptions struct {
	// Workers lists the worker counts to check (default {2, 4}).
	Workers []int
	// Seeds drive the fault injectors: each (worker count, seed) pair is
	// one full distributed sweep (default {1, 2}).
	Seeds []uint64
	// RequireKinds lists fault kinds that must have fired at least once
	// across all sweeps; the check fails (vacuous) otherwise.
	RequireKinds []faults.Kind
	// Progress, when non-nil, receives worker progress lines.
	Progress io.Writer
}

// The sweep SweepEquivalence runs and the sequential golden it is held
// to: two benchmarks at a scale that keeps a four-sweep matrix fast.
const sweepScale = 50_000

var sweepBenchmarks = []string{"gzip", "perlbmk"}

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
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2}
	}
	golden, err := SequentialGolden(sweepScale, sweepBenchmarks, o.Progress)
	if err != nil {
		return fmt.Errorf("sweep-equivalence: sequential run: %w", err)
	}

	fired := make(map[faults.Kind]uint64)
	var goldenJournal []byte
	for _, workers := range o.Workers {
		for _, seed := range o.Seeds {
			inj := faults.New(seed, sweepPlan)
			res, err := DistSweep{
				Scale:      sweepScale,
				Benchmarks: sweepBenchmarks,
				Workers:    workers,
				Injector:   inj,
				Poll:       25 * time.Millisecond,
				Progress:   o.Progress,
				Golden:     golden,
				Account:    sweepAccounting,
			}.Run()
			if err != nil {
				return fmt.Errorf("sweep-equivalence: %d workers, seed %d: %w [%s]",
					workers, seed, err, inj)
			}
			if goldenJournal == nil {
				goldenJournal = res.Journal
			} else if !bytes.Equal(res.Journal, goldenJournal) {
				return fmt.Errorf("sweep-equivalence: %d workers, seed %d: merged journal diverges across configurations [%s]\n%s",
					workers, seed, inj, DiffSummary(goldenJournal, res.Journal))
			}
			for k, n := range inj.Fired() {
				fired[k] += n
			}
		}
	}

	for _, k := range o.RequireKinds {
		if fired[k] == 0 {
			return fmt.Errorf("sweep-equivalence: vacuous — fault kind %q never fired across workers %v seeds %v (fired: %v)",
				k, o.Workers, o.Seeds, fired)
		}
	}
	return nil
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
