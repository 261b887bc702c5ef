package check

import (
	"errors"
	"fmt"
	"math"
	"reflect"

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

// compareResults requires two sampling results to be identical in
// every field, and names the first that is not. Floats compare by bit
// pattern; the cost report compares whole — per-mode units and
// instruction counts, switches, restores, seconds — because its
// per-mode mix is what offline re-pricing reads, and a schedule that
// moved one charge can keep the total.
func compareResults(a, b sampling.Result) error {
	if d := diffFields("", reflect.ValueOf(a), reflect.ValueOf(b)); d != "" {
		return errors.New(d)
	}
	return nil
}

// diffFields describes the first place two values of one type differ,
// by field path; a nil slice equals an empty one (JSON round-trips
// them alike).
func diffFields(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := diffFields(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s has %d entries, not %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffFields(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s %v != %v", path, a.Interface(), b.Interface())
		}
		if !a.IsNil() {
			return diffFields(path, a.Elem(), b.Elem())
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}
