package smp

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/vm"
	"repro/internal/workload"
)

// buildImage resolves a workload and returns its budget plus a builder
// for fresh images of it.
func buildImage(t *testing.T, name string, scale int) (*workload.Spec, uint64, func() *asm.Image) {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	budget := spec.ScaledInstr(scale)
	return &spec, budget, func() *asm.Image {
		img, _ := workload.BuildScaled(spec, scale)
		return img
	}
}

// TestBudgetGuardNoUnderflow is the regression test for the
// budget-arithmetic bug: computing g.budget - g.executed without
// guarding executed >= budget underflows uint64 into a near-2^64
// allowance. It drives a guest exactly to its budget, then forces it
// past, and requires both runs to execute nothing more.
func TestBudgetGuardNoUnderflow(t *testing.T) {
	t.Parallel()
	const scale = 400_000
	spec, natural, build := buildImage(t, "gzip", scale)
	_ = spec
	budget := natural / 4 // well inside the program, so budget is what stops it

	for _, sequential := range []bool{false, true} {
		sys := newSystem(Config{Quantum: 257}, sequential)
		g := sys.AddGuest("gzip", build(), budget)

		// Exactly to budget.
		for !sys.Done() {
			sys.RunFast(1 << 16)
		}
		if g.Executed() != budget {
			t.Fatalf("sequential=%v: executed %d, want exactly budget %d", sequential, g.Executed(), budget)
		}
		sys.RunFast(1 << 16) // at budget: must be a no-op
		if g.Executed() != budget {
			t.Fatalf("sequential=%v: guest at budget ran %d more instructions",
				sequential, g.Executed()-budget)
		}

		// Past budget (however a guest might get there): the unsigned
		// subtraction must not underflow into a huge allowance.
		g.executed = budget + 7
		if r := g.remaining(1 << 16); r != 0 {
			t.Fatalf("sequential=%v: remaining for past-budget guest = %d, want 0", sequential, r)
		}
		sys.RunFast(1 << 16)
		if g.Executed() != budget+7 {
			t.Fatalf("sequential=%v: past-budget guest executed %d more instructions",
				sequential, g.Executed()-(budget+7))
		}
	}
}

// TestHaltedGuestEstimateFinite is the regression test for the NaN-IPC
// bug: a guest that halts before its first recorded detailed interval
// must report a finite (zero) IPC with Samples == 0 visible — not a
// 0/0 NaN, and not the system-wide sample count it never contributed
// to. JSON journaling bans non-finite values, so a NaN here poisons
// the journal the moment smp results are journaled.
func TestHaltedGuestEstimateFinite(t *testing.T) {
	t.Parallel()
	const scale = 25_000
	_, budgetA, buildA := buildImage(t, "gzip", scale)

	// The short guest: a heavily scaled-down program (natural length
	// ~114k instructions) given a budget far past its completion and an
	// interval larger than its whole life, so it halts inside the first
	// functional interval — before the first detailed interval can
	// occur (detection needs two functional intervals of history).
	specB, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	imgB, _ := workload.BuildScaled(specB, 20_000_000)

	for _, sequential := range []bool{false, true} {
		sys := newSystem(Config{}, sequential)
		sys.AddGuest("gzip", buildA(), budgetA)
		sys.AddGuest("tiny", imgB, budgetA)
		ests, err := sys.DynamicSample(vm.MetricCPU, 300, 150_000, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ests[0], ests[1]
		if a.Samples == 0 {
			t.Fatalf("sequential=%v: long guest took no samples; test is vacuous", sequential)
		}
		if math.IsNaN(b.IPC) || math.IsInf(b.IPC, 0) {
			t.Fatalf("sequential=%v: halted guest IPC = %v, want finite", sequential, b.IPC)
		}
		if b.Samples != 0 {
			t.Fatalf("sequential=%v: halted guest credited %d samples it never contributed to",
				sequential, b.Samples)
		}
		if b.IPC != 0 {
			t.Fatalf("sequential=%v: halted guest with no samples reported IPC %v, want 0",
				sequential, b.IPC)
		}
	}
}

// TestMixedHaltSamples is the regression test for the per-guest sample
// accounting bug: in a mixed-halt system, a guest that halts midway
// must stop accumulating Samples while the surviving guests keep
// measuring — the old code counted every system-wide detailed interval
// for every guest.
func TestMixedHaltSamples(t *testing.T) {
	t.Parallel()
	const scale = 50_000
	_, budgetA, buildA := buildImage(t, "gzip", scale)

	// Mid-length guest: halts naturally about a third of the way into
	// the long guest's budget.
	specB, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	imgB, _ := workload.BuildScaled(specB, 150_000)

	for _, sequential := range []bool{false, true} {
		sys := newSystem(Config{}, sequential)
		sys.AddGuest("gzip", buildA(), budgetA)
		b := sys.AddGuest("mid", imgB, budgetA)
		ests, err := sys.DynamicSample(vm.MetricCPU, 300, 4000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Machine.Halted() {
			t.Fatalf("sequential=%v: mid guest did not halt; test is vacuous", sequential)
		}
		ea, eb := ests[0], ests[1]
		if eb.Samples == 0 {
			t.Fatalf("sequential=%v: mid guest contributed no samples; scale the workload up", sequential)
		}
		if eb.Samples >= ea.Samples {
			t.Fatalf("sequential=%v: halted guest credited %d samples, surviving guest %d — "+
				"halted guests must stop accumulating", sequential, eb.Samples, ea.Samples)
		}
		if math.IsNaN(eb.IPC) || math.IsInf(eb.IPC, 0) {
			t.Fatalf("sequential=%v: mid guest IPC = %v, want finite", sequential, eb.IPC)
		}
	}
}

// TestDeterminismAcrossSystems: same images, same configuration → two
// fresh systems produce identical statistics, core snapshots, and
// estimates, across schedule types and quantum edge cases (quantum 1,
// quantum larger than any budget).
func TestDeterminismAcrossSystems(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		quantum uint64
		scale   int
		mode    string // fast | timed | dynamic
	}{
		{"quantum1-fast", 1, 10_000_000, "fast"},
		{"quantum1-timed", 1, 10_000_000, "timed"},
		{"quantum128-dynamic", 128, 400_000, "dynamic"},
		{"quantum-gt-budget-timed", 1 << 40, 400_000, "timed"},
		{"quantum-gt-budget-dynamic", 1 << 40, 400_000, "dynamic"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, budgetA, buildA := buildImage(t, "gzip", tc.scale)
			_, budgetB, buildB := buildImage(t, "mcf", tc.scale)

			runOne := func() (*System, []Estimate) {
				sys := New(Config{Quantum: tc.quantum})
				sys.AddGuest("gzip", buildA(), budgetA)
				sys.AddGuest("mcf", buildB(), budgetB)
				var ests []Estimate
				switch tc.mode {
				case "fast":
					for !sys.Done() {
						sys.RunFast(1 << 16)
					}
				case "timed":
					for !sys.Done() {
						sys.RunTimed(1 << 16)
					}
				case "dynamic":
					var err error
					ests, err = sys.DynamicSample(vm.MetricCPU, 300, budgetA/16+1, 3)
					if err != nil {
						t.Fatal(err)
					}
				}
				return sys, ests
			}

			s1, e1 := runOne()
			s2, e2 := runOne()
			for i := range s1.Guests() {
				g1, g2 := s1.Guests()[i], s2.Guests()[i]
				if g1.Machine.Stats() != g2.Machine.Stats() {
					t.Errorf("guest %s: stats diverged across fresh systems:\n %+v\n %+v",
						g1.Name, g1.Machine.Stats(), g2.Machine.Stats())
				}
				if g1.Core.Snapshot() != g2.Core.Snapshot() {
					t.Errorf("guest %s: core snapshots diverged:\n %+v\n %+v",
						g1.Name, g1.Core.Snapshot(), g2.Core.Snapshot())
				}
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Errorf("estimate %d diverged: %+v vs %+v", i, e1[i], e2[i])
				}
			}
			if r1, r2 := s1.Report(e1), s2.Report(e2); r1 != r2 {
				t.Errorf("reports diverged:\n%s\nvs\n%s", r1, r2)
			}
		})
	}
}

// TestParallelSpeedupSmoke: with 4 guests and at least 4 host CPUs, the
// parallel schedule must beat the sequential one by at least 1.5x in
// fast mode (where the quantum work dominates and the barrier is the
// only overhead). The bound is conservative — ideal is ~4x — so a
// failure means the scheduler serialized somewhere.
func TestParallelSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup smoke benchmark is slow; skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("needs 4 CPUs for a meaningful speedup bound; have GOMAXPROCS %d, NumCPU %d",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	const scale = 20_000
	benches := []string{"gzip", "mcf", "swim", "perlbmk"}

	build := func() (*System, *System) {
		seq := newSystem(Config{}, true)
		par := New(Config{})
		for _, b := range benches {
			spec, err := workload.ByName(b)
			if err != nil {
				t.Fatal(err)
			}
			img, _ := workload.BuildScaled(spec, scale)
			seq.AddGuest(b, img, spec.ScaledInstr(scale))
			par.AddGuest(b, img, spec.ScaledInstr(scale))
		}
		return seq, par
	}
	seq, par := build()

	timeRun := func(sys *System) time.Duration {
		start := time.Now()
		for !sys.Done() {
			sys.RunFast(1 << 20)
		}
		return time.Since(start)
	}
	// Parallel first so a warmed branch predictor / page cache cannot
	// flatter it.
	parD := timeRun(par)
	seqD := timeRun(seq)
	speedup := float64(seqD) / float64(parD)
	t.Logf("4 guests fast mode: sequential %v, parallel %v, speedup %.2fx", seqD, parD, speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel speedup %.2fx below the 1.5x smoke bound (sequential %v, parallel %v)",
			speedup, seqD, parD)
	}
}
