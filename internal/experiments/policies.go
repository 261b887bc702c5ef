package experiments

import (
	"slices"

	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// BaselinePolicies returns the four reference points of Figure 5:
// full timing, SMARTS, and SimPoint with and without profiling cost.
func BaselinePolicies(scale int) []sampling.Policy {
	// DefaultSMARTS derives its period from a budget, and a policy
	// runs on every benchmark under one name, so the artifact fixes one
	// configuration for the whole suite: the one gzip's budget gives
	// (mcf's own budget would give a shorter period). The 97:2:1
	// structure is the same for every benchmark.
	ref := workload.Suite[0].ScaledInstr(scale)
	return []sampling.Policy{
		sampling.FullTiming{},
		sampling.DefaultSMARTS(ref),
		simpoint.New(false),
		simpoint.New(true),
	}
}

// StatSeed is the canonical seed of the artifact-bundle statistical
// policies. Fixed so the rendered tables (and the distributed sweep's
// cell matrix) name stable policy keys.
const StatSeed = 17

// StatPolicies returns the statistical sampling designs the artifact
// bundle reports with confidence intervals: two-phase stratified
// sampling and ranked-set sampling, at the canonical seed.
func StatPolicies() []sampling.Policy {
	return []sampling.Policy{
		sampling.NewStratified(StatSeed),
		sampling.NewRankedSet(StatSeed),
	}
}

// ArtifactPolicies returns the policy matrix behind the canonical
// artifact bundle (RenderArtifacts: Table 2 + Figure 8 + the CPI
// confidence-interval table). The distributed sweep shards exactly
// this matrix: Table 2's SimPoint analyses and full-timing baselines
// come from the same cells.
func ArtifactPolicies(scale int) []sampling.Policy {
	return append(fig89Policies(scale), StatPolicies()...)
}

// sharedKeys lists the execution keys that more than one policy name
// maps to, with those names in journal order: both SimPoint accounting
// variants come from one pipeline execution, which journals its
// analysis before them. Every other name is its own key.
var sharedKeys = map[string][]string{"SimPoint*": {"SimPoint", "SimPoint+prof"}}

// keyOf maps a policy name to its execution key.
func keyOf(name string) string {
	for key, names := range sharedKeys {
		if slices.Contains(names, name) {
			return key
		}
	}
	return name
}

// PolicyKeyOf is the identity a policy's measurement is memoised,
// journaled, and (in the distributed sweep) leased under.
func PolicyKeyOf(p sampling.Policy) string { return keyOf(p.Name()) }

// KeyRecordNames returns the result-record policy names one execution
// key's measurement journals, plus whether a SimPoint analysis record
// accompanies them. The sweep coordinator uses this to decide when a
// cell's record set is complete.
func KeyRecordNames(key string) (results []string, analysis bool) {
	if names, ok := sharedKeys[key]; ok {
		return names, true
	}
	return []string{key}, false
}

// Fig67Policies returns the Dynamic Sampling configurations of
// Figures 6 and 7: CPU-300 and I/O-100 with interval lengths 1M/10M/100M
// and max_func 10/∞.
func Fig67Policies() []sampling.Policy {
	var out []sampling.Policy
	for _, mc := range []struct {
		metric vm.Metric
		sens   float64
	}{{vm.MetricCPU, 300}, {vm.MetricIO, 100}} {
		for _, mul := range []uint64{1, 10, 100} {
			for _, maxf := range []int{10, 0} {
				out = append(out, sampling.NewDynamic(mc.metric, mc.sens, mul, maxf))
			}
		}
	}
	return out
}

// Fig5Extra returns the additional Dynamic Sampling points Figure 5
// plots beyond the Figure 6/7 grid.
func Fig5Extra() []sampling.Policy {
	return []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 100),
		sampling.NewDynamic(vm.MetricEXC, 300, 1, 10),
		sampling.NewDynamic(vm.MetricEXC, 500, 10, 10),
		sampling.NewDynamic(vm.MetricEXC, 300, 1, 0),
	}
}

// AllPolicies returns every policy the evaluation section uses.
func AllPolicies(scale int) []sampling.Policy {
	out := BaselinePolicies(scale)
	out = append(out, Fig67Policies()...)
	out = append(out, Fig5Extra()...)
	out = append(out, StatPolicies()...)
	return out
}
