package smp

import (
	"testing"

	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

func buildGuest(t *testing.T, name string, scale int) (*workload.Spec, uint64) {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &spec, spec.ScaledInstr(scale)
}

// soloIPC runs one guest alone in full detail.
func soloIPC(t *testing.T, name string, scale int, budget uint64) float64 {
	t.Helper()
	spec, _ := buildGuest(t, name, scale)
	img, _ := workload.BuildScaled(*spec, scale)
	sys := New(Config{})
	g := sys.AddGuest(name, img, budget)
	sys.run(budget, true)
	mk := g.Core.Marker()
	return float64(mk.Instrs) / float64(mk.Cycles)
}

func TestGuestsRunToBudget(t *testing.T) {
	t.Parallel()
	const scale = 400_000
	specA, budgetA := buildGuest(t, "gzip", scale)
	specB, budgetB := buildGuest(t, "mcf", scale)
	imgA, _ := workload.BuildScaled(*specA, scale)
	imgB, _ := workload.BuildScaled(*specB, scale)

	sys := New(Config{})
	a := sys.AddGuest("gzip", imgA, budgetA)
	b := sys.AddGuest("mcf", imgB, budgetB)
	for !sys.Done() {
		sys.RunFast(1 << 16)
	}
	if a.Executed() < budgetA*85/100 || b.Executed() < budgetB*85/100 {
		t.Fatalf("guests under-ran: %d/%d and %d/%d",
			a.Executed(), budgetA, b.Executed(), budgetB)
	}
	// Guests are independent VMs: both produced their own phase marks.
	if len(a.Machine.PhaseLog()) == 0 || len(b.Machine.PhaseLog()) == 0 {
		t.Fatal("guests did not run their phase schedules")
	}
}

// TestSharedL2Interference: co-running a memory-heavy guest must not
// improve, and should typically degrade, another guest's IPC relative
// to running alone — the consolidation effect the shared L2 models.
func TestSharedL2Interference(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	const scale = 100_000
	_, budget := buildGuest(t, "swim", scale)
	solo := soloIPC(t, "swim", scale, budget)

	// Co-run with mcf: both memory-bound, and the generated programs
	// share the same guest address-space layout, so their resident sets
	// collide in the shared L2.
	specS, _ := buildGuest(t, "swim", scale)
	specM, budgetM := buildGuest(t, "mcf", scale)
	imgS, _ := workload.BuildScaled(*specS, scale)
	imgM, _ := workload.BuildScaled(*specM, scale)
	sys := New(Config{})
	gs := sys.AddGuest("swim", imgS, budget)
	sys.AddGuest("mcf", imgM, budgetM)
	sys.run(budget, true)
	mk := gs.Core.Marker()
	co := float64(mk.Instrs) / float64(mk.Cycles)

	t.Logf("swim solo IPC %.4f, co-run with mcf %.4f", solo, co)
	if co > solo*1.02 {
		t.Fatalf("co-run IPC %.4f above solo %.4f: shared L2 not shared?", co, solo)
	}
	// The shared L2 must have seen both guests' traffic.
	if sys.SharedL2().Stats().Accesses() == 0 {
		t.Fatal("shared L2 saw no accesses")
	}
}

func TestPrivateVsSharedL2Config(t *testing.T) {
	t.Parallel()
	// A core built with a SharedL2 must use exactly that cache.
	shared := New(Config{}).sharedL2
	cfg := timing.DefaultConfig()
	cfg.SharedL2 = shared
	core := timing.NewCore(cfg)
	core.OnEvents([]vm.Event{{PC: 0x1000, NextPC: 0x1008}}) // ifetch populates L2 through the shared cache
	if shared.Stats().Accesses() == 0 {
		t.Fatal("core did not route L2 accesses to the shared cache")
	}
}

func TestSystemDynamicSampling(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	const scale = 50_000
	specA, budgetA := buildGuest(t, "gzip", scale)
	specB, budgetB := buildGuest(t, "mcf", scale)
	imgA, _ := workload.BuildScaled(*specA, scale)
	imgB, _ := workload.BuildScaled(*specB, scale)

	// Reference: full detail.
	ref := New(Config{})
	ra := ref.AddGuest("gzip", imgA, budgetA)
	rb := ref.AddGuest("mcf", imgB, budgetB)
	for !ref.Done() {
		ref.run(1<<16, true)
	}
	refIPC := func(g *Guest) float64 {
		mk := g.Core.Marker()
		return float64(mk.Instrs) / float64(mk.Cycles)
	}

	// Sampled: system-level Dynamic Sampling on the CPU metric.
	sys := New(Config{})
	sys.AddGuest("gzip", imgA, budgetA)
	sys.AddGuest("mcf", imgB, budgetB)
	ests, err := sys.DynamicSample(vm.MetricCPU, 300, 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].Samples == 0 {
		t.Fatal("system-level DS took no samples")
	}
	for i, ref := range []float64{refIPC(ra), refIPC(rb)} {
		err := ests[i].IPC/ref - 1
		if err < 0 {
			err = -err
		}
		t.Logf("%s: ref %.4f sampled %.4f (err %.1f%%, %d samples)",
			ests[i].Name, ref, ests[i].IPC, err*100, ests[i].Samples)
		if err > 0.25 {
			t.Errorf("%s: sampled IPC off by %.1f%%", ests[i].Name, err*100)
		}
	}
}

func TestDynamicSampleErrors(t *testing.T) {
	t.Parallel()
	sys := New(Config{})
	if _, err := sys.DynamicSample(vm.MetricCPU, 300, 4000, 0); err == nil {
		t.Fatal("empty system must be rejected")
	}
	spec, budget := buildGuest(t, "gzip", 400_000)
	img, _ := workload.BuildScaled(*spec, 400_000)
	sys.AddGuest("gzip", img, budget)
	if _, err := sys.DynamicSample(vm.MetricCPU, 300, 0, 0); err == nil {
		t.Fatal("zero interval must be rejected")
	}
}

// TestGuestIsolationAcrossQuanta pins guest isolation under the
// chained-block interpreter: two guests interleaved at a prime quantum
// (so quantum boundaries land mid-block) must each produce exactly the
// architectural state and statistics of the same workload run alone
// with the scheduler's partitioning. Chain memos and TLB contents
// persist inside a guest across its scheduling gaps — and must never
// bleed between guests.
func TestGuestIsolationAcrossQuanta(t *testing.T) {
	t.Parallel()
	const scale = 60_000
	const quantum = 4093 // prime
	specA, budgetA := buildGuest(t, "gzip", scale)
	specB, budgetB := buildGuest(t, "mcf", scale)
	imgA, _ := workload.BuildScaled(*specA, scale)
	imgB, _ := workload.BuildScaled(*specB, scale)

	sys := New(Config{})
	a := sys.AddGuest("gzip", imgA, budgetA)
	b := sys.AddGuest("mcf", imgB, budgetB)
	for !sys.Done() {
		sys.RunFast(quantum)
	}

	for _, g := range []struct {
		name   string
		img    *workload.Spec
		budget uint64
		got    *Guest
	}{{"gzip", specA, budgetA, a}, {"mcf", specB, budgetB, b}} {
		// Solo reference with the scheduler's own partitioning: translation
		// and TLB statistics legitimately depend on where Run budgets
		// expire (a mid-block exit re-translates at an interior pc), so
		// isolation means "identical to running alone with the same
		// quanta", not "identical to one uninterrupted call".
		img, _ := workload.BuildScaled(*g.img, scale)
		solo := vm.New(vm.Config{})
		solo.Load(img)
		var n uint64
		for n < g.budget && !solo.Halted() {
			q := uint64(quantum)
			if rem := g.budget - n; rem < q {
				q = rem
			}
			r := solo.Run(q, nil)
			if r == 0 {
				break
			}
			n += r
		}
		if solo.Stats() != g.got.Machine.Stats() {
			t.Errorf("%s: interleaved stats diverged from solo run:\n got %+v\nwant %+v",
				g.name, g.got.Machine.Stats(), solo.Stats())
		}
		for r := 0; r < 32; r++ {
			if solo.Reg(r) != g.got.Machine.Reg(r) {
				t.Errorf("%s: r%d interleaved %d vs solo %d",
					g.name, r, g.got.Machine.Reg(r), solo.Reg(r))
			}
		}
	}
}
