package check

// Observability invariance: the obs layer (PR 5) must be inert. A
// metrics registry and transition trace attached to a session may only
// *read* simulation state; wall-clock nondeterminism flows into the
// metrics, never back into results. These checks pin that property at
// both granularities: per-policy results bit-identical (ObsInvariance)
// and whole rendered artifact bundles byte-identical
// (ObsArtifactInvariance).

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/workload"
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
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if policies == nil {
		policies = DefaultPolicies(spec.ScaledInstr(opts.Scale))
	}
	for _, p := range policies {
		plainOpts := opts
		plainOpts.Obs = nil
		plainOpts.Trace = nil
		plain, err := p.Run(core.NewSession(spec, plainOpts))
		if err != nil {
			return fmt.Errorf("check: %s on %s: %v", p.Name(), bench, err)
		}

		obsOpts := opts
		obsOpts.Obs = obs.NewRegistry()
		obsOpts.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
		observed, err := p.Run(core.NewSession(spec, obsOpts))
		if err != nil {
			return fmt.Errorf("check: %s on %s (observed): %v", p.Name(), bench, err)
		}

		if err := compareResults(plain, observed); err != nil {
			return fmt.Errorf("check: obs not inert for %s on %s: %v", p.Name(), bench, err)
		}

		// Non-vacuity: the instrumentation must have seen the run.
		if obsOpts.Trace.Total() == 0 {
			return fmt.Errorf("check: obs vacuous for %s on %s: no transitions recorded", p.Name(), bench)
		}
		var counted uint64
		for _, mode := range []string{"fast", "event", "bbv", "funcwarm", "detailwarm", "timing"} {
			counted += obsOpts.Obs.Counter("vm_instructions_total", "mode", mode).Value()
		}
		if counted == 0 {
			return fmt.Errorf("check: obs vacuous for %s on %s: no instructions counted", p.Name(), bench)
		}
		if len(obsOpts.Obs.Snapshot()) == 0 {
			return fmt.Errorf("check: obs vacuous for %s on %s: empty snapshot", p.Name(), bench)
		}
	}
	return nil
}

// ObsArtifactInvariance renders the full artifact bundle twice — once
// plain, once with an obs registry and trace attached to the runner —
// and requires byte-identical output. This covers the paths
// ObsInvariance cannot: the runner's cell lifecycle, the shared
// checkpoint store's counter mirror, and SimPoint's two-pass pipeline.
func ObsArtifactInvariance(scale int, benches []string) error {
	base := experiments.Options{Scale: scale, Benchmarks: benches}
	golden, err := renderWith(base)
	if err != nil {
		return fmt.Errorf("obs-invariance: plain run: %w", err)
	}

	instr := base
	instr.Obs = obs.NewRegistry()
	instr.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
	got, err := renderWith(instr)
	if err != nil {
		return fmt.Errorf("obs-invariance: instrumented run: %w", err)
	}
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("obs-invariance: artifacts diverge with obs attached\n%s",
			DiffSummary(golden, got))
	}
	if instr.Trace.Total() == 0 {
		return fmt.Errorf("obs-invariance: vacuous — no transitions recorded")
	}
	return nil
}
