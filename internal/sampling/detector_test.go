package sampling

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// refDetector is Algorithm 1's decision written the obvious way, kept on
// the test side as the reference the policies are compared against: one
// call per finished interval with that interval's monitored value.
type refDetector struct {
	sens    float64
	maxFunc int
	prev    uint64
	armed   bool // the first interval has been seen
	numFunc int
}

// observe returns "arm" (first interval: nothing to compare against),
// "steady", "detect" or "maxfunc", and for the last two the number of
// functional intervals that preceded the sample they order.
func (d *refDetector) observe(val uint64) (decision string, gap int) {
	prev, armed := d.prev, d.armed
	d.prev, d.armed = val, true
	if !armed {
		return "arm", 0
	}
	diff := val - prev
	if val < prev {
		diff = prev - val
	}
	den := prev
	if den == 0 {
		den = 1
	}
	changed := float64(diff)/float64(den)*100 > d.sens
	if changed {
		gap, d.numFunc = d.numFunc, 0
		return "detect", gap
	}
	d.numFunc++
	if d.maxFunc > 0 && d.numFunc >= d.maxFunc {
		gap, d.numFunc = d.numFunc, 0
		return "maxfunc", gap
	}
	return "steady", 0
}

// detectorCases is the decision table: each row is a series of
// per-interval values of the monitored variable and the decision after
// each interval.
// The interval after a "detect" or "maxfunc" is the sample it ordered;
// its values are compared like any other interval's.
var detectorCases = []struct {
	name    string
	sens    float64
	maxFunc int
	series  []uint64
	want    []string
	gaps    []int // gap of every detect/maxfunc decision, in order
}{
	{"first interval never triggers", 10, 0,
		[]uint64{1000, 1000}, []string{"arm", "steady"}, nil},
	{"first interval never triggers, even at max_func 1", 10, 1,
		[]uint64{1000, 1000, 1000}, []string{"arm", "maxfunc", "maxfunc"}, []int{1, 1}},
	{"increase past S", 100, 0,
		[]uint64{10, 20, 41}, []string{"arm", "steady", "detect"}, []int{1}},
	{"exactly S is not a change", 100, 0,
		[]uint64{10, 20, 0}, []string{"arm", "steady", "steady"}, nil},
	{"decrease counts as change", 50, 0,
		[]uint64{100, 49, 49}, []string{"arm", "detect", "steady"}, []int{0}},
	{"prev == 0 uses denominator 1", 300, 0,
		[]uint64{0, 3, 0, 4}, []string{"arm", "steady", "steady", "detect"}, []int{2}},
	{"prev == 0 and now == 0 is steady", 0, 0,
		[]uint64{0, 0}, []string{"arm", "steady"}, nil},
	{"max_func forces on the N-th steady interval", 50, 3,
		[]uint64{8, 8, 8, 8, 8, 8, 8},
		[]string{"arm", "steady", "steady", "maxfunc", "steady", "steady", "maxfunc"}, []int{3, 3}},
	{"the count restarts after a sample", 50, 3,
		[]uint64{8, 8, 8, 80, 80, 80, 80},
		[]string{"arm", "steady", "steady", "detect", "steady", "steady", "maxfunc"}, []int{2, 3}},
	{"max_func 0 never forces", 50, 0,
		[]uint64{8, 8, 8, 8, 8, 8}, []string{"arm", "steady", "steady", "steady", "steady", "steady"}, nil},
	{"back-to-back detections", 10, 2,
		[]uint64{1, 10, 100, 100}, []string{"arm", "detect", "detect", "steady"}, []int{0, 0}},
}

// TestDetectorTable runs every row through the reference and through
// PhaseDetector: both must give the row's decisions and gaps.
func TestDetectorTable(t *testing.T) {
	t.Parallel()
	names := map[Decision]string{Arming: "arm", Steady: "steady", Detect: "detect", Forced: "maxfunc"}
	for _, c := range detectorCases {
		ref := refDetector{sens: c.sens, maxFunc: c.maxFunc}
		det := PhaseDetector{SensitivityPct: c.sens, MaxFunc: c.maxFunc}
		observers := map[string]func(val uint64) (string, int){
			"reference": ref.observe,
			"PhaseDetector": func(val uint64) (string, int) {
				d, gap := det.Observe(val)
				if d.Sample() != (d == Detect || d == Forced) {
					t.Errorf("%s: %s.Sample() = %v", c.name, names[d], d.Sample())
				}
				return names[d], gap
			},
		}
		for who, observe := range observers {
			var got []string
			var gaps []int
			for _, val := range c.series {
				d, gap := observe(val)
				got = append(got, d)
				if d == "detect" || d == "maxfunc" {
					gaps = append(gaps, gap)
				}
			}
			if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(gaps, c.gaps) {
				t.Errorf("%s: %s decided %v gaps %v, want %v gaps %v", c.name, who, got, gaps, c.want, c.gaps)
			}
		}
	}
}

// refDynamic is Dynamic.Run with every decision taken by refDetector:
// the schedule of session calls around the decision is the paper's
// (fast interval; on a trigger settle, warm, then one timed interval).
// It writes Dynamic's decision counters and gap histogram into the
// session's registry.
func refDynamic(p Dynamic, s *core.Session) Result {
	if p.IntervalMul == 0 {
		p.IntervalMul = 1
	}
	interval := s.IntervalLen() * p.IntervalMul
	det := refDetector{sens: p.SensitivityPct, maxFunc: p.MaxFunc}
	res := Result{Policy: p.Name(), Bench: s.Spec().Name}
	po := newRefPolicyObs(s, p.Name())
	reg := s.Obs()
	gaps := reg.Histogram("sampling_functional_gap_intervals", obs.ExpBuckets(1, 2, 10), "policy", p.Name())
	var est Estimator
	timing := false
	prev := s.Machine().Stats()
	for !s.Done() {
		if timing {
			if p.SettleIntervals > 0 {
				est.Functional(s.RunFast(s.IntervalLen() * uint64(p.SettleIntervals)))
			}
			est.Functional(s.RunDetailWarm(s.IntervalLen() * uint64(p.WarmIntervals)))
			ipc, ex := s.RunTimed(interval)
			if ex == 0 {
				break
			}
			est.Sample(ipc, ex)
			res.Samples++
			po.sample(ipc)
			timing = false
		} else {
			ex := s.RunFast(interval)
			est.Functional(ex)
			if ex == 0 {
				break
			}
		}
		now := s.Machine().Stats()
		delta := now.Sub(prev)
		prev = now
		d, gap := det.observe(delta.Value(p.Metric))
		if d == "arm" {
			continue
		}
		reg.Counter("sampling_decisions_total", "policy", res.Policy, "decision", d).Inc()
		if d == "detect" || d == "maxfunc" {
			timing = true
			gaps.Observe(float64(gap))
		}
		if d == "detect" {
			res.Detections = append(res.Detections, (s.Executed()-1)/s.IntervalLen())
		}
	}
	res.EstIPC = est.IPC()
	res.Instructions = s.Executed()
	res.Cost = s.Meter().Report(s.Scale())
	return res
}

// TestDynamicFollowsReferenceDetector runs Dynamic Sampling and the
// reference loop over the same benchmarks and requires the same
// detections at the same intervals, the same number of samples, the
// same decision counts and gaps, and a bit-identical estimate.
func TestDynamicFollowsReferenceDetector(t *testing.T) {
	t.Parallel()
	policies := []Dynamic{
		NewDynamic(vm.MetricCPU, 300, 1, 0),
		NewDynamic(vm.MetricCPU, 300, 1, 3),
		NewDynamic(vm.MetricEXC, 100, 1, 10),
		NewDynamic(vm.MetricIO, 100, 10, 2),
		{Metric: vm.MetricCPU, SensitivityPct: 200, IntervalMul: 1, MaxFunc: 5, WarmIntervals: 1},
	}
	for _, bench := range []string{"gzip", "mcf"} {
		spec, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			name := fmt.Sprintf("%s/%s", bench, p.Name())
			reg, refReg := obs.NewRegistry(), obs.NewRegistry()
			got, err := p.Run(core.NewSession(spec, core.Options{Scale: 50_000, Obs: reg}))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refDynamic(p, core.NewSession(spec, core.Options{Scale: 50_000, Obs: refReg}))

			if !reflect.DeepEqual(got.Detections, want.Detections) {
				t.Errorf("%s: detections %v, reference %v", name, got.Detections, want.Detections)
			}
			if got.Samples != want.Samples {
				t.Errorf("%s: %d samples, reference %d", name, got.Samples, want.Samples)
			}
			if math.Float64bits(got.EstIPC) != math.Float64bits(want.EstIPC) {
				t.Errorf("%s: estimate %v, reference %v", name, got.EstIPC, want.EstIPC)
			}
			for _, d := range []string{"detect", "maxfunc", "steady"} {
				n := reg.Counter("sampling_decisions_total", "policy", p.Name(), "decision", d).Value()
				if w := refReg.Counter("sampling_decisions_total", "policy", p.Name(), "decision", d).Value(); n != w {
					t.Errorf("%s: %d %s decisions, reference %d", name, n, d, w)
				}
			}
			gaps := reg.Histogram("sampling_functional_gap_intervals", obs.ExpBuckets(1, 2, 10), "policy", p.Name())
			wantGaps := refReg.Histogram("sampling_functional_gap_intervals", obs.ExpBuckets(1, 2, 10), "policy", p.Name())
			if gaps.Count() != wantGaps.Count() || gaps.Sum() != wantGaps.Sum() {
				t.Errorf("%s: gap histogram count %d sum %v, reference count %d sum %v",
					name, gaps.Count(), gaps.Sum(), wantGaps.Count(), wantGaps.Sum())
			}
			if want.Samples == 0 {
				t.Errorf("%s: no samples taken; the comparison is vacuous", name)
			}
		}
	}
}

// TestDetectionsAreBaseIntervals: a detection is the base interval in
// which the triggering interval ended, so the measurement it orders —
// one settle interval, then detailed warming — enters detailed warming
// at instruction (d+2)·L. Every detailed-warming entry of a run without
// max_func is such a measurement.
func TestDetectionsAreBaseIntervals(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		bench string
		p     Dynamic
	}{
		{"gzip", NewDynamic(vm.MetricCPU, 300, 1, 0)},
		{"perlbmk", NewDynamic(vm.MetricEXC, 300, 1, 0)},
	} {
		spec, err := workload.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTransitionTrace(1 << 16)
		s := core.NewSession(spec, core.Options{Scale: 50_000, Trace: trace})
		res, err := c.p.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		warmAt := map[uint64]bool{}
		for _, tr := range trace.Snapshot() {
			if tr.To == "detailwarm" {
				warmAt[tr.Instr] = true
			}
		}
		if trace.Total() > 1<<16 || len(res.Detections) < 5 {
			t.Fatalf("%s: %d transitions, %d detections: the check is vacuous", c.bench, trace.Total(), len(res.Detections))
		}
		L, measured := s.IntervalLen(), 0
		for _, d := range res.Detections {
			if (d+2)*L >= s.Total() {
				continue // the budget ended before the measurement
			}
			measured++
			if !warmAt[(d+2)*L] {
				t.Errorf("%s: detection %d, but no detailed warming at %d·L; detections %v", c.bench, d, d+2, res.Detections)
			}
		}
		if measured != len(warmAt) {
			t.Errorf("%s: %d detections measured, %d detailed-warming entries", c.bench, measured, len(warmAt))
		}
	}
}
