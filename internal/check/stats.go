package check

// Statistical validity: the confidence intervals the Stratified and
// RankedSet policies report are a runtime contract ("the true CPI is in
// this band with 95% confidence"), and a contract needs an enforcement
// harness. StatisticalValidity runs each policy family across many
// seeds against full-timing ground truth and checks three things:
// empirical coverage of the claimed intervals, seed determinism (and
// journal round-trip identity) of every result, and the error-targeting
// mode's budget/width promises. Everything is seeded, so a pass is a
// pinned, reproducible fact about the estimator layer — not a flaky
// statistical coin flip.

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// StatValidityOptions configures StatisticalValidity. The zero value
// runs the standard design: 100 seeds per policy per benchmark on gzip
// and perlbmk at scale 50 000 (200 runs per policy family), requiring
// ≥90% of the claimed 95% intervals to cover the full-timing CPI.
type StatValidityOptions struct {
	// Benchmarks are the workloads to validate on.
	Benchmarks []string
	// Runs is the number of seeded runs per policy per benchmark.
	Runs int
	// MinCoverage is the required fraction of intervals (pooled across
	// benchmarks, per policy family) containing the true CPI.
	MinCoverage float64
	// Progress, when non-nil, receives per-family summaries.
	Progress io.Writer
}

func (o *StatValidityOptions) setDefaults() {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = artifactBenchmarks
	}
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.MinCoverage == 0 {
		o.MinCoverage = 0.90
	}
}

// The error-targeting contract StatisticalValidity verifies: a relative
// CPI half-width of ±5% within at most 400 measurements per run.
const (
	statTarget = 0.05
	statBudget = 400
)

// statFamily is one policy family under validation: a constructor from
// seed, plus the error-targeting variant of the same design.
type statFamily struct {
	name     string
	make     func(seed uint64) sampling.Policy
	targeted func(seed uint64) sampling.Policy
}

func statFamilies() []statFamily {
	return []statFamily{
		{
			name: "Stratified",
			make: func(seed uint64) sampling.Policy { return sampling.NewStratified(seed) },
			targeted: func(seed uint64) sampling.Policy {
				return sampling.NewStratified(seed).WithTarget(statTarget, statBudget)
			},
		},
		{
			name: "RankedSet",
			make: func(seed uint64) sampling.Policy { return sampling.NewRankedSet(seed) },
			targeted: func(seed uint64) sampling.Policy {
				p := sampling.NewRankedSet(seed)
				// The ranked-set budget is counted in cycles of SetSize
				// measurements each.
				return p.WithTarget(statTarget, statBudget/p.SetSize)
			},
		},
	}
}

// StatisticalValidity validates the statistical sampling policies
// end to end. For every policy family it:
//
//   - runs Runs seeded designs per benchmark and requires that, pooled
//     across benchmarks, at least MinCoverage of the reported
//     confidence intervals contain the full-timing CPI (the intervals
//     claim 95%; the harness demands ≥90% so honest sampling noise in
//     the coverage estimate itself cannot fail a correct estimator);
//   - requires every run to report a finite, valid interval (a policy
//     that silently stopped reporting intervals must fail loudly, not
//     pass vacuously);
//   - re-runs one seed per benchmark in an independent session and
//     requires a result bit-identical to the runner's, and round-trips
//     that result through JSON, the journal's wire format, requiring
//     bit-identical reconstruction;
//   - runs the error-targeting variant and requires it to stop within
//     statBudget everywhere and to deliver an interval no wider than
//     ±statTarget on at least one benchmark.
func StatisticalValidity(o StatValidityOptions) error {
	o.setDefaults()
	families := statFamilies()
	// Every measurement but the replay is one runner cell: the ground
	// truth, then per family Runs seeded designs and the targeted run.
	// No cell is retried and no checkpoint is shared, so a failed cell
	// fails the check.
	policies := []sampling.Policy{sampling.FullTiming{}}
	for _, fam := range families {
		for s := 1; s <= o.Runs; s++ {
			policies = append(policies, fam.make(uint64(s)))
		}
		policies = append(policies, fam.targeted(1))
	}
	r := experiments.NewRunner(experiments.Options{
		Scale:      artifactScale,
		Benchmarks: o.Benchmarks,
		CkptOff:    true,
		Retries:    -1,
	})
	results, err := r.RunAll(policies)
	if err != nil {
		return fmt.Errorf("stat-validity: %w", err)
	}
	if failed := r.Failures(); len(failed) > 0 {
		return fmt.Errorf("stat-validity: %w", failed[0])
	}
	truth := make(map[string]float64, len(o.Benchmarks)) // bench -> full-timing CPI
	for _, bench := range o.Benchmarks {
		full := results[bench][sampling.FullTiming{}.Name()]
		if full.EstIPC <= 0 {
			return fmt.Errorf("stat-validity: full timing on %s: non-positive IPC %v", bench, full.EstIPC)
		}
		truth[bench] = 1 / full.EstIPC
	}

	for _, fam := range families {
		covered, total := 0, 0
		var sumRelHW float64
		for _, bench := range o.Benchmarks {
			for s := 1; s <= o.Runs; s++ {
				iv := results[bench][fam.make(uint64(s)).Name()].CPIInterval
				if iv == nil || !iv.Valid() {
					return fmt.Errorf("stat-validity: %s seed %d on %s: no valid interval (vacuous run)",
						fam.name, s, bench)
				}
				total++
				if iv.Contains(truth[bench]) {
					covered++
				}
				sumRelHW += iv.RelHalfWidth()
			}
		}
		coverage := float64(covered) / float64(total)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "stat-validity: %s: coverage %d/%d (%.1f%%), mean half-width ±%.2f%%\n",
				fam.name, covered, total, coverage*100, sumRelHW/float64(total)*100)
		}
		if coverage < o.MinCoverage {
			return fmt.Errorf("stat-validity: %s: empirical coverage %.1f%% (%d/%d) below required %.0f%%",
				fam.name, coverage*100, covered, total, o.MinCoverage*100)
		}

		// Seed determinism against an independent session, and journal
		// round-trip identity, one seed per benchmark.
		for _, bench := range o.Benchmarks {
			first := results[bench][fam.make(1).Name()]
			spec, err := workload.ByName(bench)
			if err != nil {
				return fmt.Errorf("stat-validity: %w", err)
			}
			again, err := fam.make(1).Run(core.NewSession(spec, core.Options{Scale: artifactScale}))
			if err != nil {
				return fmt.Errorf("stat-validity: %s replay on %s: %w", fam.name, bench, err)
			}
			if err := compareResults(first, again); err != nil {
				return fmt.Errorf("stat-validity: %s on %s not seed-deterministic: %w",
					fam.name, bench, err)
			}
			blob, err := json.Marshal(first)
			if err != nil {
				return fmt.Errorf("stat-validity: %s on %s: marshal: %w", fam.name, bench, err)
			}
			var back sampling.Result
			if err := json.Unmarshal(blob, &back); err != nil {
				return fmt.Errorf("stat-validity: %s on %s: unmarshal: %w", fam.name, bench, err)
			}
			if err := compareResults(first, back); err != nil {
				return fmt.Errorf("stat-validity: %s on %s: journal round-trip not bit-identical: %w",
					fam.name, bench, err)
			}
			if !reflect.DeepEqual(first.Trace, back.Trace) || !reflect.DeepEqual(first.Detections, back.Detections) {
				return fmt.Errorf("stat-validity: %s on %s: journal round-trip changed trace/detections",
					fam.name, bench)
			}
		}

		// Error-targeting contract: stops within budget everywhere, and
		// the requested width is delivered on at least one benchmark.
		met := false
		for _, bench := range o.Benchmarks {
			res := results[bench][fam.targeted(1).Name()]
			if res.Samples > statBudget {
				return fmt.Errorf("stat-validity: %s targeting on %s: %d samples exceed budget %d",
					fam.name, bench, res.Samples, statBudget)
			}
			if res.TargetMet {
				if iv := res.CPIInterval; iv == nil || !iv.Valid() || iv.RelHalfWidth() > statTarget {
					return fmt.Errorf("stat-validity: %s targeting on %s: TargetMet but interval wider than ±%.2f%%",
						fam.name, bench, statTarget*100)
				}
				met = true
			}
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "stat-validity: %s targeting ±%.1f%% on %s: met=%v with %d samples\n",
					fam.name, statTarget*100, bench, res.TargetMet, res.Samples)
			}
		}
		if !met {
			return fmt.Errorf("stat-validity: %s: error-targeting ±%.2f%% not met on any of %v within budget %d",
				fam.name, statTarget*100, o.Benchmarks, statBudget)
		}
	}
	return nil
}
