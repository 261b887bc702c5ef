package check

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DefaultPolicies returns one representative of every policy family the
// repo implements — FullTiming, SMARTS, SimPoint, Dynamic Sampling, and
// the statistical designs (Stratified, RankedSet) — configured for a
// benchmark with the given total instruction budget.
func DefaultPolicies(totalInstr uint64) []sampling.Policy {
	return []sampling.Policy{
		sampling.FullTiming{},
		sampling.DefaultSMARTS(totalInstr),
		simpoint.New(false),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 10),
		sampling.NewStratified(17),
		sampling.NewRankedSet(17),
	}
}

// variant is one re-run of a policy under changed session options; its
// Result must be bit-identical to the policy's reference run.
type variant struct {
	label string       // names the run in error texts
	opts  core.Options // the run's options
	// vacuous, when non-nil, runs once the variant compared equal and
	// reports a run that never exercised what the variant is there for.
	vacuous func() error
}

// comparePolicies is the loop behind the per-policy equivalence legs
// (PolicyDeterminism, CheckpointEquivalence, PolicyBatchInvariance,
// ObsInvariance): per policy, one reference run under opts and one run
// per variant, each on a fresh session of the benchmark, every Result
// bit-identical to the reference's. variants is called once per policy,
// so a variant may carry per-policy state (a fresh metrics registry);
// state shared by all policies (a checkpoint store) lives in the
// caller. leg names the check in error texts. policies defaults to
// DefaultPolicies for the benchmark's budget.
func comparePolicies(leg, bench string, opts core.Options, policies []sampling.Policy, variants func() []variant) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if policies == nil {
		policies = DefaultPolicies(spec.ScaledInstr(opts.Scale))
	}
	for _, p := range policies {
		ref, err := p.Run(core.NewSession(spec, opts))
		if err != nil {
			return fmt.Errorf("check: %s: %s on %s: %v", leg, p.Name(), bench, err)
		}
		for _, v := range variants() {
			got, err := p.Run(core.NewSession(spec, v.opts))
			if err != nil {
				return fmt.Errorf("check: %s: %s on %s (%s): %v", leg, p.Name(), bench, v.label, err)
			}
			if err := compareResults(ref, got); err != nil {
				return fmt.Errorf("check: %s: %s on %s: the %s run differs: %v", leg, p.Name(), bench, v.label, err)
			}
			if v.vacuous != nil {
				if err := v.vacuous(); err != nil {
					return fmt.Errorf("check: %s: %s on %s: the %s run is vacuous: %v", leg, p.Name(), bench, v.label, err)
				}
			}
		}
	}
	return nil
}

// PolicyDeterminism replays a full sampling session twice per policy on
// fresh sessions built from the same benchmark spec and options, and
// requires the two Results to be bit-identical: same IPC estimate (to
// the last float bit), same sample count and schedule, same detections,
// same modelled cost. Sampling results are the repo's primary
// experimental output, so any hidden nondeterminism here silently
// corrupts the reproduction.
//
// Policies defaults to DefaultPolicies for the benchmark's budget.
func PolicyDeterminism(bench string, opts core.Options, policies []sampling.Policy) error {
	return comparePolicies("policy determinism", bench, opts, policies, func() []variant {
		return []variant{{label: "replay", opts: opts}}
	})
}

// compareResults requires two sampling results to be bit-identical.
func compareResults(a, b sampling.Result) error {
	switch {
	case math.Float64bits(a.EstIPC) != math.Float64bits(b.EstIPC):
		return fmt.Errorf("EstIPC %v != %v", a.EstIPC, b.EstIPC)
	case a.Instructions != b.Instructions:
		return fmt.Errorf("Instructions %d != %d", a.Instructions, b.Instructions)
	case a.Samples != b.Samples:
		return fmt.Errorf("Samples %d != %d", a.Samples, b.Samples)
	case math.Float64bits(a.CIHalfWidthPct) != math.Float64bits(b.CIHalfWidthPct):
		return fmt.Errorf("CIHalfWidthPct %v != %v", a.CIHalfWidthPct, b.CIHalfWidthPct)
	case math.Float64bits(a.Cost.Units) != math.Float64bits(b.Cost.Units):
		return fmt.Errorf("Cost.Units %v != %v", a.Cost.Units, b.Cost.Units)
	case a.TargetMet != b.TargetMet:
		return fmt.Errorf("TargetMet %v != %v", a.TargetMet, b.TargetMet)
	case (a.CPIInterval == nil) != (b.CPIInterval == nil):
		return fmt.Errorf("CPIInterval %v != %v", a.CPIInterval, b.CPIInterval)
	case len(a.Detections) != len(b.Detections):
		return fmt.Errorf("Detections %v != %v", a.Detections, b.Detections)
	}
	if a.CPIInterval != nil {
		x, y := *a.CPIInterval, *b.CPIInterval
		for _, f := range []struct {
			name string
			a, b float64
		}{
			{"Point", x.Point, y.Point},
			{"Lo", x.Lo, y.Lo},
			{"Hi", x.Hi, y.Hi},
			{"Confidence", x.Confidence, y.Confidence},
		} {
			if math.Float64bits(f.a) != math.Float64bits(f.b) {
				return fmt.Errorf("CPIInterval.%s %v != %v", f.name, f.a, f.b)
			}
		}
	}
	for i := range a.Detections {
		if a.Detections[i] != b.Detections[i] {
			return fmt.Errorf("Detections[%d] %d != %d", i, a.Detections[i], b.Detections[i])
		}
	}
	return nil
}
