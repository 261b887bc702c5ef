package sampling_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// refSimPointRunBoth is SimPoint's measurement pass written out in
// full: dispatch to each simulation point from a checkpoint (free, one
// restore charged), detailed warming, one timed interval, combined
// with the cluster weights in cycle space. The analysis is
// Policy.Analyse itself; simpoint's TestAnalyseFollowsReference pins
// that against its own reference.
func refSimPointRunBoth(p simpoint.Policy, s *core.Session) (noProf, withProf sampling.Result, err error) {
	res := sampling.Result{Bench: s.Spec().Name}
	an, err := p.Analyse(s)
	if err != nil {
		return res, res, err
	}
	res.Instructions = s.Executed()
	profCost := s.Meter().Report(s.Scale())
	s.ResetMeter()
	s.Reset()
	interval := s.IntervalLen()
	warm := interval * uint64(p.WarmIntervals)
	var cpi, wsum float64
	for j, point := range an.Points {
		target := uint64(point) * interval
		warmStart := target
		if warmStart >= warm {
			warmStart -= warm
		} else {
			warmStart = 0
		}
		if warmStart > s.Executed() {
			s.FastForwardVia(warmStart)
		}
		s.Meter().ChargeRestore()
		if target > s.Executed() {
			s.RunDetailWarm(target - s.Executed())
		}
		ipc, ex := s.RunTimed(interval)
		if ex == 0 {
			break
		}
		if ipc > 0 {
			cpi += an.Weights[j] / ipc
			wsum += an.Weights[j]
		}
		res.Samples++
	}
	if wsum > 0 && cpi > 0 {
		res.EstIPC = wsum / cpi
	}
	res.Cost = s.Meter().Report(s.Scale())
	noProf, withProf = res, res
	noProf.Policy = "SimPoint"
	withProf.Policy = "SimPoint+prof"
	withProf.Cost = res.Cost.Add(profCost)
	return noProf, withProf, nil
}

// runRef runs p's reference schedule on s.
func runRef(p sampling.Policy, s *core.Session) (sampling.Result, error) {
	if sp, ok := p.(simpoint.Policy); ok {
		noProf, withProf, err := refSimPointRunBoth(sp, s)
		if sp.ChargeProfiling {
			return withProf, err
		}
		return noProf, err
	}
	return sampling.RefRun(p, s)
}

// diffBits walks two values of one type and describes the first place
// they differ; floats compare by bit pattern, so -0 ≠ 0 and every NaN
// payload counts.
func diffBits(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v != nil %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return diffBits(path, a.Elem(), b.Elem())
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// pinnedSeries are the obs series the driver must write exactly as the
// reference schedules do: Dynamic's decision counters and gap
// histogram, the two-phase designs' refinement rounds, error-target
// outcomes and interval widths, and every policy's sample counter and
// interval-IPC histogram — except SimPoint's, which its reference
// never wrote (TestSamplesCounterMatchesResult covers those).
func pinnedSeries(reg *obs.Registry, simPoint bool) map[string]float64 {
	out := map[string]float64{}
	for k, v := range reg.Snapshot() {
		if !strings.HasPrefix(k, "sampling_") || v == 0 {
			continue
		}
		if simPoint && (strings.HasPrefix(k, "sampling_samples_total") || strings.HasPrefix(k, "sampling_interval_ipc")) {
			continue
		}
		out[k] = v
	}
	return out
}

// followPolicies is what TestPoliciesFollowReference covers for a
// budget: check.DefaultPolicies, SimPoint with profiling charged, and
// the error-targeting variants check.StatisticalValidity runs.
func followPolicies(total uint64) []sampling.Policy {
	rss := sampling.NewRankedSet(17)
	return append(check.DefaultPolicies(total),
		simpoint.New(true),
		sampling.NewStratified(17).WithTarget(0.05, 400),
		rss.WithTarget(0.05, 400/rss.SetSize),
	)
}

// TestPoliciesFollowReference runs every policy under the driver and
// under its reference schedule on gzip, mcf and perlbmk at two scales,
// with and without a checkpoint store, and requires every Result field
// bit-identical and the pinned obs series equal.
func TestPoliciesFollowReference(t *testing.T) {
	t.Parallel()
	for _, bench := range []string{"gzip", "mcf", "perlbmk"} {
		for _, scale := range []int{20_000, 50_000} {
			for _, withStore := range []bool{false, true} {
				bench, scale, withStore := bench, scale, withStore
				t.Run(fmt.Sprintf("%s/%d/ckpt=%v", bench, scale, withStore), func(t *testing.T) {
					t.Parallel()
					spec, err := workload.ByName(bench)
					if err != nil {
						t.Fatal(err)
					}
					var store *ckpt.Store
					if withStore {
						store = ckpt.NewMemory()
					}
					for _, p := range followPolicies(spec.ScaledInstr(scale)) {
						run := func(f func(sampling.Policy, *core.Session) (sampling.Result, error)) (sampling.Result, error, map[string]float64) {
							reg := obs.NewRegistry()
							res, err := f(p, core.NewSession(spec, core.Options{Scale: scale, Ckpt: store, Obs: reg}))
							_, sp := p.(simpoint.Policy)
							return res, err, pinnedSeries(reg, sp)
						}
						want, wantErr, wantObs := run(runRef)
						got, gotErr, gotObs := run(sampling.Policy.Run)
						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("%s: error %v, reference %v", p.Name(), gotErr, wantErr)
						}
						if d := diffBits("Result", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
							t.Errorf("%s: %s", p.Name(), d)
						}
						if !reflect.DeepEqual(gotObs, wantObs) {
							t.Errorf("%s: obs series\n%v\nreference\n%v", p.Name(), sortedSeries(gotObs), sortedSeries(wantObs))
						}
						if want.Samples == 0 {
							t.Errorf("%s: the reference took no samples; the comparison is vacuous", p.Name())
						}
					}
					if withStore && store.Stats().Puts == 0 {
						t.Errorf("no policy deposited a checkpoint; the store leg is vacuous")
					}
				})
			}
		}
	}
}

func sortedSeries(m map[string]float64) []string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(out)
	return out
}

// TestSamplesCounterMatchesResult requires every policy's
// sampling_samples_total to equal the samples its Result reports.
func TestSamplesCounterMatchesResult(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(check.DefaultPolicies(spec.ScaledInstr(50_000)), simpoint.New(true)) {
		reg := obs.NewRegistry()
		res, err := p.Run(core.NewSession(spec, core.Options{Scale: 50_000, Obs: reg}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		n := reg.Counter("sampling_samples_total", "policy", p.Name()).Value()
		if n != uint64(res.Samples) || n == 0 {
			t.Errorf("%s: sampling_samples_total %d, Result.Samples %d", p.Name(), n, res.Samples)
		}
	}
}

// TestObsCountsEachInstructionOnce requires obs to count every
// instruction of a run once: executed in some mode
// (vm_instructions_total) or skipped on the checkpoint store
// (ckpt_restored_instructions_total), never both. Three Dynamic cells
// run in sequence on one store, so the later two skip the fast
// intervals the first ran and catch their machine up before each
// sample, and then again with no store.
func TestObsCountsEachInstructionOnce(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory()
	for _, st := range []*ckpt.Store{store, nil} {
		for _, p := range []sampling.Policy{
			sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
			sampling.NewDynamic(vm.MetricCPU, 500, 1, 0),
			sampling.NewDynamic(vm.MetricEXC, 300, 1, 0),
		} {
			reg := obs.NewRegistry()
			res, err := p.Run(core.NewSession(spec, core.Options{Scale: 20_000, Ckpt: st, Obs: reg}))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			var executed uint64
			for m := hostcost.Mode(0); int(m) < hostcost.NumModes; m++ {
				executed += reg.Counter("vm_instructions_total", "mode", m.String()).Value()
			}
			restored := reg.Counter("ckpt_restored_instructions_total").Value()
			if executed+restored != res.Instructions {
				t.Errorf("%s (store %v): %d executed + %d restored, Result.Instructions %d",
					p.Name(), st != nil, executed, restored, res.Instructions)
			}
		}
	}
	if store.Stats().Skips == 0 {
		t.Error("no cell skipped an interval on the store (vacuous)")
	}
}

// TestTransitionsIgnoreTheStore runs the cells of
// TestObsCountsEachInstructionOnce with a transition trace attached, in
// sequence on one store and then with none. The later cells skip fast
// intervals the first one ran, and the trace must not show it: every
// transition equals the store-off run's except in Seq and WallNs.
func TestTransitionsIgnoreTheStore(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory()
	var traces [2][]obs.Transition
	for i, st := range []*ckpt.Store{store, nil} {
		tr := obs.NewTransitionTrace(1 << 12)
		for _, p := range []sampling.Policy{
			sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
			sampling.NewDynamic(vm.MetricCPU, 500, 1, 0),
			sampling.NewDynamic(vm.MetricEXC, 300, 1, 0),
		} {
			if _, err := p.Run(core.NewSession(spec, core.Options{Scale: 20_000, Ckpt: st, Trace: tr})); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		if tr.Total() > 1<<12 {
			t.Fatalf("%d transitions overflow the trace", tr.Total())
		}
		for _, x := range tr.Snapshot() {
			x.Seq, x.WallNs = 0, 0
			traces[i] = append(traces[i], x)
		}
	}
	if store.Stats().Skips == 0 || len(traces[1]) == 0 {
		t.Fatalf("%d skips, %d transitions (vacuous)", store.Stats().Skips, len(traces[1]))
	}
	if len(traces[0]) != len(traces[1]) {
		t.Fatalf("%d transitions with the store, %d without", len(traces[0]), len(traces[1]))
	}
	for i := range traces[0] {
		if traces[0][i] != traces[1][i] {
			t.Fatalf("transition %d with the store %+v, without %+v", i, traces[0][i], traces[1][i])
		}
	}
}

// TestTwoPhaseWalkSkipsRecordedIntervals runs Stratified and then
// RankedSet on gzip, in sequence on one store and then with none. The
// two designs' first phase is the same canonical fast walk, and it
// reads only the monitored statistics, so RankedSet's walk must be a
// chain of skips over the records Stratified left: Skips rises by its
// frame length, and the machine catches up only for the partial tail
// interval the walk still executes, where gzip halts (the Reset before
// the measurement pass drops any lead). Both Results must equal the
// store-off runs' bit for bit.
func TestTwoPhaseWalkSkipsRecordedIntervals(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	policies := []sampling.Policy{sampling.NewStratified(17), sampling.NewRankedSet(17)}
	run := func(p sampling.Policy, st *ckpt.Store) sampling.Result {
		res, err := p.Run(core.NewSession(spec, core.Options{Scale: 20_000, Ckpt: st}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		return res
	}
	store := ckpt.NewMemory()
	warm := run(policies[0], store)
	before := store.Stats()
	skipped := run(policies[1], store)
	after := store.Stats()
	// gzip halts inside the interval after its frame: that tail runs,
	// so the machine catches up once, from one snapshot lookup.
	interval := workload.DefaultIntervalLen(spec.ScaledInstr(20_000))
	frame, tail := skipped.Instructions/interval, skipped.Instructions%interval
	if tail == 0 {
		t.Fatalf("the walk ends on an interval boundary (%d instructions): the tail case is not exercised", skipped.Instructions)
	}
	if got := after.Skips - before.Skips; got != frame {
		t.Errorf("RankedSet skipped %d intervals, want its frame length %d", got, frame)
	}
	if got := after.Hits + after.Misses - before.Hits - before.Misses; got != 1 {
		t.Errorf("RankedSet looked up %d snapshots, want 1 (the catch-up before its tail)", got)
	}
	for i, got := range []sampling.Result{warm, skipped} {
		if d := diffBits("Result", reflect.ValueOf(got), reflect.ValueOf(run(policies[i], nil))); d != "" {
			t.Errorf("%s with the store: %s", policies[i].Name(), d)
		}
	}
}

// fuzzPolicy decodes one FuzzScheduleMatchesReference input: kind picks
// the design, the rest are its parameters folded into small ranges.
//
//	SMARTS:     a unit, b detailed-warm units, c period
//	Dynamic:    x metric, a sensitivity %, b interval multiplier,
//	            c max_func, y warm intervals, z settle intervals
//	Stratified: a strata K, b samples n, y warm intervals, x target %,
//	            z budget/4
//	RankedSet:  a set size m, b cycles, y warm intervals, x target %,
//	            z max cycles
func fuzzPolicy(kind uint8, a, b, c uint16, x, y, z uint8, seed uint64) sampling.Policy {
	target := float64(x%20) / 100
	switch kind % 4 {
	case 0:
		return sampling.SMARTS{UnitInstr: uint64(a % 4096), DetailWarmUnits: uint64(b % 4), PeriodInstr: uint64(c)}
	case 1:
		return sampling.Dynamic{Metric: vm.Metric(x % 3), SensitivityPct: float64(a % 1000), IntervalMul: uint64(b % 4),
			MaxFunc: int(c % 32), WarmIntervals: int(y % 3), SettleIntervals: int(z % 3)}
	case 2:
		return sampling.Stratified{Strata: int(a % 12), Samples: int(b % 96), WarmIntervals: int(y % 3),
			Confidence: 0.95, TargetRelHW: target, Budget: 4 * int(z), Seed: seed}
	default:
		return sampling.RankedSet{SetSize: int(a % 8), Cycles: int(b % 16), WarmIntervals: int(y % 3),
			Confidence: 0.95, TargetRelHW: target, MaxCycles: int(z), Seed: seed}
	}
}

// FuzzScheduleMatchesReference runs a fuzzed SMARTS, Dynamic,
// Stratified or RankedSet configuration on gzip at a small budget under
// the driver and under its reference schedule, and requires the same
// error, every Result field bit-identical and the same obs series. The
// seeds are check.DefaultPolicies' configurations at that budget, and
// Dynamic without its settle interval.
func FuzzScheduleMatchesReference(f *testing.F) {
	const scale = 100_000
	spec, err := workload.ByName("gzip")
	if err != nil {
		f.Fatal(err)
	}
	sm := sampling.DefaultSMARTS(spec.ScaledInstr(scale))
	f.Add(uint8(0), uint16(sm.UnitInstr), uint16(sm.DetailWarmUnits), uint16(sm.PeriodInstr), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Add(uint8(1), uint16(300), uint16(1), uint16(10), uint8(vm.MetricCPU), uint8(1), uint8(1), uint64(0))
	f.Add(uint8(1), uint16(300), uint16(1), uint16(10), uint8(vm.MetricCPU), uint8(1), uint8(0), uint64(0))
	f.Add(uint8(2), uint16(6), uint16(48), uint16(0), uint8(0), uint8(2), uint8(0), uint64(17))
	f.Add(uint8(2), uint16(6), uint16(48), uint16(0), uint8(5), uint8(2), uint8(100), uint64(17))
	f.Add(uint8(3), uint16(4), uint16(12), uint16(0), uint8(0), uint8(2), uint8(0), uint64(17))
	f.Add(uint8(3), uint16(4), uint16(12), uint16(0), uint8(5), uint8(2), uint8(100), uint64(17))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c uint16, x, y, z uint8, seed uint64) {
		p := fuzzPolicy(kind, a, b, c, x, y, z, seed)
		run := func(f func(sampling.Policy, *core.Session) (sampling.Result, error)) (sampling.Result, error, map[string]float64) {
			reg := obs.NewRegistry()
			res, err := f(p, core.NewSession(spec, core.Options{Scale: scale, Obs: reg}))
			return res, err, pinnedSeries(reg, false)
		}
		want, wantErr, wantObs := run(runRef)
		got, gotErr, gotObs := run(sampling.Policy.Run)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v: error %v, reference %v", p, gotErr, wantErr)
		}
		if d := diffBits("Result", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
			t.Errorf("%+v: %s", p, d)
		}
		if !reflect.DeepEqual(gotObs, wantObs) {
			t.Errorf("%+v: obs series\n%v\nreference\n%v", p, sortedSeries(gotObs), sortedSeries(wantObs))
		}
	})
}

// TestDriverAddsNoAllocationPerStep requires a policy under the driver
// to allocate no more than its reference loop plus a constant per run:
// the Driver, its closures and obs handles. One allocation per step —
// a method value built inside a step source — costs thousands on these
// runs and fails it.
func TestDriverAddsNoAllocationPerStep(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 50_000
	for _, p := range []sampling.Policy{
		sampling.FullTiming{},
		sampling.DefaultSMARTS(spec.ScaledInstr(scale)),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
	} {
		allocs := func(f func(sampling.Policy, *core.Session) (sampling.Result, error)) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := f(p, core.NewSession(spec, core.Options{Scale: scale})); err != nil {
					t.Fatal(err)
				}
			})
		}
		want, got := allocs(runRef), allocs(sampling.Policy.Run)
		if got > want+16 {
			t.Errorf("%s: %v allocations, reference %v", p.Name(), got, want)
		}
	}
}
