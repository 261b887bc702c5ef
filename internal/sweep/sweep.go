// Package sweep is the distributed deployment shape of the experiment
// runner: a coordinator that partitions the (benchmark × policy) cell
// matrix into expiring leases, workers that claim cells over HTTP and
// execute them with an experiments.Runner, a remote checkpoint tier
// serving the content-addressed internal/ckpt store over the same HTTP
// surface, and a journal-merge step that folds the records the
// workers' completions carry back into one canonical run journal.
//
// Correctness stance: a distributed sweep is a scheduling optimization,
// nothing more. Measurements are deterministic and journal records
// round-trip exactly through JSON, so an N-worker sweep must produce
// artifacts byte-identical to the single-process run — under worker
// crashes (leases expire and are re-issued), duplicated executions
// (records dedupe by identity), and remote checkpoint faults (the
// store degrades to its local tiers, then to scratch execution).
// check.SweepEquivalence pins the whole contract.
package sweep

import (
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// Cell is one unit of distributed work: a benchmark paired with an
// execution key (experiments.PolicyKeyOf), so both SimPoint accounting
// variants — one pipeline execution — travel as one cell.
type Cell struct {
	Bench  string `json:"bench"`
	Policy string `json:"policy"`
}

func (c Cell) String() string { return c.Bench + "/" + c.Policy }

// Lease grants a worker exclusive execution of one cell until its TTL
// elapses without a heartbeat. Exclusivity is advisory — a worker
// presumed dead may still be running — so completion is guarded by
// lease identity: only the holder of the cell's *current* lease may
// complete it, and a late message from a superseded lease is rejected.
type Lease struct {
	ID   uint64 `json:"id"`
	Cell Cell   `json:"cell"`
	// TTL is how long the lease lives without a heartbeat.
	TTL time.Duration `json:"ttl"`
	// Delivery is how many times this cell has been leased, 0-based:
	// re-issues after expiry increment it. The fault harness keys
	// worker-kill verdicts on it to bound kills per cell.
	Delivery int `json:"delivery"`
}

// Config describes one distributed sweep: the work matrix and the
// execution parameters every worker must share for the merged journal
// to be meaningful. Workers fetch it from the coordinator rather than
// configuring themselves, so scale skew is impossible by construction.
type Config struct {
	// Scale is the workload scale divisor (see experiments.Options).
	Scale int `json:"scale"`
	// Benchmarks is the benchmark subset, in suite order.
	Benchmarks []string `json:"benchmarks"`
	// LeaseTTL is how long a claimed cell survives without a heartbeat
	// before it is re-issued (default 30s; tests use milliseconds).
	LeaseTTL time.Duration `json:"lease_ttl"`
	// Epoch numbers the coordinator incarnation that served this config.
	// It is response metadata, not sweep configuration: clients stamp it
	// on lease verbs, and a coordinator restarted from its WAL bumps it
	// so messages from before the restart are rejected (ErrStaleEpoch)
	// instead of acting on dead lease IDs. Zero means "unknown" and is
	// accepted everywhere, keeping old clients working.
	Epoch uint64 `json:"epoch,omitempty"`
}

func (c *Config) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = workload.Names()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
}

// Cells returns the deterministic cell matrix for a config: benchmarks
// in configured order × the execution keys of the artifact policy
// matrix, deduplicated (both SimPoint variants fold into "SimPoint*").
// Every ordering downstream is derived from this slice: the journal
// merge follows it exactly, claims follow it within the locality rule
// (Coordinator.Claim).
func (c Config) Cells() []Cell {
	cfg := c
	cfg.setDefaults()
	var out []Cell
	for _, b := range cfg.Benchmarks {
		seen := make(map[string]bool)
		for _, p := range experiments.ArtifactPolicies(cfg.Scale) {
			key := experiments.PolicyKeyOf(p)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Cell{Bench: b, Policy: key})
		}
	}
	return out
}
