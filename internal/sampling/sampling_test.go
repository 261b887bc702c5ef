package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hostcost"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestEstimatorExactOnFullCoverage(t *testing.T) {
	t.Parallel()
	// Sampling every interval reconstructs total cycles exactly.
	f := func(ipcsRaw []uint8) bool {
		if len(ipcsRaw) == 0 {
			return true
		}
		var e Estimator
		var instr, cycles float64
		for _, raw := range ipcsRaw {
			ipc := 0.1 + float64(raw)/64.0
			e.Sample(ipc, 1000)
			instr += 1000
			cycles += 1000 / ipc
		}
		want := instr / cycles
		return math.Abs(e.IPC()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorExtrapolation(t *testing.T) {
	t.Parallel()
	var e Estimator
	e.Sample(2.0, 100) // 50 cycles
	e.Functional(900)  // extrapolated at 2.0: 450 cycles
	e.Sample(0.5, 100) // 200 cycles
	e.Functional(900)  // 1800 cycles
	want := 2000.0 / (50 + 450 + 200 + 1800)
	if math.Abs(e.IPC()-want) > 1e-12 {
		t.Fatalf("IPC = %v, want %v", e.IPC(), want)
	}
	if w := e.instrs + e.pending; w != 2000 {
		t.Fatalf("weight = %v", w)
	}
}

func TestEstimatorPendingPrefix(t *testing.T) {
	t.Parallel()
	// Functional execution before the first sample is attributed to it.
	var e Estimator
	e.Functional(500)
	e.Sample(1.0, 500)
	if math.Abs(e.IPC()-1.0) > 1e-12 {
		t.Fatalf("IPC = %v, want 1.0", e.IPC())
	}
}

func TestEstimatorPiecewiseConstantPerfect(t *testing.T) {
	t.Parallel()
	// One sample per phase of a piecewise-constant trace reconstructs
	// the exact IPC when samples land inside their phases.
	var e Estimator
	phases := []struct {
		ipc   float64
		instr uint64
	}{{2.0, 10000}, {0.5, 20000}, {1.0, 5000}}
	var instr, cycles float64
	for _, p := range phases {
		e.Sample(p.ipc, 1000)
		e.Functional(p.instr - 1000)
		instr += float64(p.instr)
		cycles += float64(p.instr) / p.ipc
	}
	if math.Abs(e.IPC()-instr/cycles) > 1e-9 {
		t.Fatalf("IPC = %v, want %v", e.IPC(), instr/cycles)
	}
}

func TestEstimatorIgnoresDegenerateSamples(t *testing.T) {
	t.Parallel()
	var e Estimator
	e.Sample(0, 100) // ignored
	e.Sample(1.0, 0) // ignored
	e.Sample(1.0, 100)
	if e.IPC() != 1.0 {
		t.Fatalf("IPC = %v", e.IPC())
	}
}

func sessionFor(t *testing.T, bench string, scale int) *core.Session {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSession(spec, core.Options{Scale: scale})
}

func TestFullTimingCoversEverything(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 100_000)
	res, err := FullTiming{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.EstIPC <= 0 || res.EstIPC > 3 {
		t.Fatalf("IPC = %v", res.EstIPC)
	}
	if res.Instructions < s.Total()*9/10 {
		t.Fatalf("covered %d of %d", res.Instructions, s.Total())
	}
	// Everything ran in timed mode.
	if res.Cost.Instrs[hostcost.Timing] != res.Instructions {
		t.Fatalf("timed %d != executed %d", res.Cost.Instrs[hostcost.Timing], res.Instructions)
	}
}

func TestSMARTSBadConfigRejected(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 200_000)
	if _, err := (SMARTS{UnitInstr: 100, PeriodInstr: 100}).Run(s); err == nil {
		t.Fatal("degenerate SMARTS config must be rejected")
	}
}

func TestSMARTSSamplesPeriodically(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 100_000)
	p := DefaultSMARTS(s.Total())
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := int(s.Total() / p.PeriodInstr)
	if res.Samples < wantSamples*8/10 || res.Samples > wantSamples+1 {
		t.Fatalf("samples = %d, want ~%d", res.Samples, wantSamples)
	}
	// The 99.7% bound is symmetric around the mean unit CPI, which
	// lies near the estimate's CPI.
	iv := res.CPIInterval
	if iv == nil || !iv.Valid() || iv.Confidence != 0.997 || iv.HalfWidth() <= 0 ||
		math.Abs(iv.Point-(iv.Lo+iv.Hi)/2) > 1e-12 || math.Abs(iv.Point*res.EstIPC-1) > 0.25 {
		t.Fatalf("CPIInterval = %+v for EstIPC %v", iv, res.EstIPC)
	}
}

func TestDynamicZeroSensitivityTriggersOnAnyChange(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 100_000)
	// EXC fluctuates every interval (episodes, TLB refills), so S=0
	// triggers nearly everywhere; each sample consumes settle+warm+timed
	// intervals, capping the rate around 1 in 4.
	p := NewDynamic(vm.MetricEXC, 0, 1, 0)
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	intervals := int(s.Total() / s.IntervalLen())
	if res.Samples < intervals/8 {
		t.Fatalf("samples = %d of %d intervals; S=0 on EXC should trigger constantly", res.Samples, intervals)
	}

	// And sensitivity is monotone: S=0 must sample at least as often as
	// S=300 on the same metric.
	s2 := sessionFor(t, "gzip", 100_000)
	res300, err := NewDynamic(vm.MetricEXC, 300, 1, 0).Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if res300.Samples > res.Samples {
		t.Fatalf("S=300 sampled more (%d) than S=0 (%d)", res300.Samples, res.Samples)
	}
}

func TestDynamicMaxFuncForcesMinimumRate(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 100_000)
	// A sensitivity so high nothing triggers: only max_func samples.
	p := NewDynamic(vm.MetricCPU, 1e12, 1, 10)
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("max_func must force samples")
	}
	if len(res.Detections) != 0 {
		t.Fatalf("impossible sensitivity still detected: %v", res.Detections)
	}
}

func TestDynamicUnlimitedAtImpossibleSensitivity(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 100_000)
	p := NewDynamic(vm.MetricCPU, 1e12, 1, 0)
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 0 {
		t.Fatalf("samples = %d, want 0 (no triggers, no max_func)", res.Samples)
	}
	if res.EstIPC != 0 {
		t.Fatal("no samples must yield a zero estimate")
	}
}

func TestDynamicDetectsPlannedTransitions(t *testing.T) {
	t.Parallel()
	s := sessionFor(t, "gzip", 50_000)
	plan := s.Plan()
	p := NewDynamic(vm.MetricCPU, 300, 1, 0)
	res, err := p.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Count planned code-changing transitions (what the CPU metric can
	// see) and require DS to have found a comparable number.
	want := 0
	for _, ph := range plan.Phases {
		if ph.Transition != workload.TransParam {
			want++
		}
	}
	if res.Samples < want/2 {
		t.Fatalf("detected %d phases of ~%d code transitions", res.Samples, want)
	}
}

func TestPolicyNames(t *testing.T) {
	t.Parallel()
	cases := map[string]Policy{
		"Full timing":     FullTiming{},
		"SMARTS":          SMARTS{},
		"CPU-300-1M-∞":    NewDynamic(vm.MetricCPU, 300, 1, 0),
		"I/O-100-10M-10":  NewDynamic(vm.MetricIO, 100, 10, 10),
		"EXC-500-100M-42": NewDynamic(vm.MetricEXC, 500, 100, 42),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	t.Parallel()
	base := Result{EstIPC: 1.0, Cost: costUnits(1000)}
	r := Result{EstIPC: 1.1, Cost: costUnits(10)}
	if e := r.ErrorVs(base); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("error = %v", e)
	}
	if s := r.Speedup(base); s != 100 {
		t.Fatalf("speedup = %v", s)
	}
	if (Result{}).ErrorVs(Result{}) != 0 {
		t.Fatal("zero baseline must not divide by zero")
	}
}

func costUnits(u float64) hostcost.Report {
	return hostcost.Report{Units: u}
}
