package check

// Observability invariance: the obs layer must be inert. A
// metrics registry and transition trace attached to a session may only
// *read* simulation state; wall-clock nondeterminism flows into the
// metrics, never back into results. These checks pin that property at
// both granularities: per-policy results bit-identical (ObsInvariance)
// and whole rendered artifact bundles byte-identical
// (ObsArtifactInvariance).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// ObsInvariance runs every policy twice on fresh sessions — once plain,
// once with a metrics registry and transition trace attached — and
// requires bit-identical Results. It also rejects vacuity: the
// instrumented run must actually have recorded transitions and
// per-mode instruction counts, otherwise a regression that silently
// detaches the obs layer would pass.
//
// Policies defaults to DefaultPolicies for the benchmark's budget.
func ObsInvariance(bench string, opts core.Options, policies []sampling.Policy) error {
	opts.Obs, opts.Trace = nil, nil
	return comparePolicies("obs invariance", bench, opts, policies, func() []variant {
		observed := opts
		observed.Obs, observed.Trace = obs.NewRegistry(), obs.NewTransitionTrace(obs.DefaultTraceCap)
		return []variant{{
			label: "observed",
			opts:  observed,
			// The instrumentation must have seen the run.
			vacuous: func() error {
				if observed.Trace.Total() == 0 {
					return fmt.Errorf("no transitions recorded")
				}
				var counted uint64
				for _, mode := range []string{"fast", "event", "bbv", "funcwarm", "detailwarm", "timing"} {
					counted += observed.Obs.Counter("vm_instructions_total", "mode", mode).Value()
				}
				if counted == 0 {
					return fmt.Errorf("no instructions counted")
				}
				if len(observed.Obs.Snapshot()) == 0 {
					return fmt.Errorf("empty snapshot")
				}
				return nil
			},
		}}
	})
}

// ObsArtifactInvariance renders the full artifact bundle twice — once
// plain, once with an obs registry and trace attached to the runner —
// and requires byte-identical output. This covers the paths
// ObsInvariance cannot: the runner's cell lifecycle, the shared
// checkpoint store's counter mirror, and SimPoint's two-pass pipeline.
func ObsArtifactInvariance(scale int, benches []string) error {
	plain := experiments.Options{Scale: scale, Benchmarks: benches}
	observed := plain
	observed.Obs = obs.NewRegistry()
	observed.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
	return compareArtifacts("obs-invariance", renderWith, plain, []artifactVariant{{
		label: "obs attached",
		opts:  observed,
		vacuous: func() error {
			if observed.Trace.Total() == 0 {
				return fmt.Errorf("no transitions recorded")
			}
			return nil
		},
	}})
}
