package workload

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

func TestSuiteTable(t *testing.T) {
	if len(Suite) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(Suite))
	}
	seen := map[string]bool{}
	for _, s := range Suite {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		if s.PaperGInstr < 29 || s.PaperGInstr > 240 {
			t.Errorf("%s paper instructions %dG outside Table 2 range", s.Name, s.PaperGInstr)
		}
		if s.PaperSimPoints < 28 || s.PaperSimPoints > 235 {
			t.Errorf("%s paper simpoints %d outside Table 2 range", s.Name, s.PaperSimPoints)
		}
		if s.MemBound < 0 || s.MemBound > 1 {
			t.Errorf("%s MemBound %v outside [0,1]", s.Name, s.MemBound)
		}
		if seg := s.Segments(); seg < 4 || seg > 24 {
			t.Errorf("%s segments %d outside [4,24]", s.Name, seg)
		}
	}
	// Spot-check exact Table 2 values.
	if Suite[0].Name != "gzip" || Suite[0].PaperGInstr != 70 || Suite[0].PaperSimPoints != 131 {
		t.Error("gzip row does not match Table 2")
	}
	if Suite[25].Name != "apsi" || !Suite[25].FP {
		t.Error("apsi row does not match Table 2")
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName must reject unknown benchmarks")
	} else if !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("ByName's error must list the suite: %v", err)
	}
	if len(Names()) != 26 {
		t.Error("Names() incomplete")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	spec, _ := ByName("vpr")
	img1, plan1 := BuildScaled(spec, 100_000)
	img2, plan2 := BuildScaled(spec, 100_000)
	if len(img1.Segments) != len(img2.Segments) {
		t.Fatal("segment counts differ")
	}
	for i := range img1.Segments {
		a, b := img1.Segments[i], img2.Segments[i]
		if a.Base != b.Base || len(a.Words) != len(b.Words) {
			t.Fatal("segments differ")
		}
		for j := range a.Words {
			if a.Words[j] != b.Words[j] {
				t.Fatal("code differs between identical builds")
			}
		}
	}
	if len(plan1.Phases) != len(plan2.Phases) {
		t.Fatal("plans differ")
	}
}

func TestDifferentBenchmarksDiffer(t *testing.T) {
	a, _ := BuildScaled(Suite[0], 100_000)
	b, _ := BuildScaled(Suite[1], 100_000)
	if a.Bytes() == b.Bytes() {
		// Sizes could coincide; compare first code segment contents.
		same := true
		for i, w := range a.Segments[0].Words {
			if i >= len(b.Segments[0].Words) || b.Segments[0].Words[i] != w {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different benchmarks produced identical code")
		}
	}
}

// TestAllBenchmarksExecute runs every suite member briefly and checks
// the phase machinery produces the signature statistics.
func TestAllBenchmarksExecute(t *testing.T) {
	for _, spec := range Suite {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			img, plan := BuildScaled(spec, 400_000)
			m := vm.New(vm.Config{})
			m.Load(img)
			n := m.RunToCompletion(1<<16, nil)
			if n < plan.TotalTarget*85/100 {
				t.Fatalf("executed %d of %d", n, plan.TotalTarget)
			}
			st := m.Stats()
			if st.TCInvalidations == 0 {
				t.Error("no translation-cache invalidations")
			}
			if st.IOOps == 0 {
				t.Error("no I/O")
			}
			if st.Syscalls == 0 || st.PageFaults == 0 {
				t.Error("no exception activity")
			}
			marks := m.PhaseLog()
			if len(marks) != len(plan.Phases) {
				t.Errorf("phase marks %d != plan %d", len(marks), len(plan.Phases))
			}
		})
	}
}

// TestTransitionSignatures verifies that each transition kind fires the
// VM statistics it is designed to fire.
func TestTransitionSignatures(t *testing.T) {
	spec, _ := ByName("perlbmk") // many phases of all kinds
	img, plan := BuildScaled(spec, 200_000)
	m := vm.New(vm.Config{})
	m.Load(img)

	// Execute phase by phase using the guest phase marks: run until
	// each next mark and snapshot stats.
	type snap struct {
		at    uint64
		stats vm.Stats
	}
	var snaps []snap
	for !m.Halted() {
		m.Run(1000, nil)
		log := m.PhaseLog()
		for len(snaps) < len(log) {
			snaps = append(snaps, snap{log[len(snaps)].Instr, m.Stats()})
		}
		if m.Stats().Instructions > plan.TotalTarget*2 {
			break
		}
	}
	if len(snaps) < 6 {
		t.Fatalf("only %d phase marks observed", len(snaps))
	}
	// The statistics accumulated between consecutive marks must match
	// the transition kind recorded in the plan for the later phase.
	fullSeen, codeSeen, paramSeen := false, false, false
	for i := 1; i < len(snaps) && i < len(plan.Phases); i++ {
		delta := snaps[i].stats.Sub(snaps[i-1].stats)
		ph := plan.Phases[i]
		switch ph.Transition {
		case TransFull:
			fullSeen = true
			if delta.DiskReads == 0 {
				t.Errorf("phase %d (full): no disk reads", ph.ID)
			}
			if delta.TCInvalidations == 0 {
				t.Errorf("phase %d (full): no TC invalidations", ph.ID)
			}
		case TransCode:
			codeSeen = true
			if delta.TCInvalidations == 0 {
				t.Errorf("phase %d (code): no TC invalidations", ph.ID)
			}
			if delta.DiskReads != 0 {
				t.Errorf("phase %d (code): unexpected disk I/O", ph.ID)
			}
		case TransParam:
			paramSeen = true
			if delta.DiskReads != 0 {
				t.Errorf("phase %d (param): unexpected disk I/O", ph.ID)
			}
		}
	}
	if !fullSeen || !codeSeen || !paramSeen {
		t.Fatalf("transition kinds not all exercised: full=%v code=%v param=%v",
			fullSeen, codeSeen, paramSeen)
	}
}

func TestFragmentAccounting(t *testing.T) {
	for kind := KernelKind(0); int(kind) < NumKernelKinds; kind++ {
		for v := 0; v < 2; v++ {
			fr := BuildFragment(kind, v, HotBase)
			if fr.PerIter <= 0 || fr.EpisodePerIter <= 0 || fr.EpisodeFixed <= 0 {
				t.Errorf("%s: bad accounting %+v", fr.Name(), fr)
			}
			if len(fr.Words) == 0 || len(fr.Words) > 512 {
				t.Errorf("%s: %d words (must fit one page)", fr.Name(), len(fr.Words))
			}
			eff := fr.EffectivePerIter(10, 16)
			if eff <= float64(fr.PerIter) {
				t.Errorf("%s: effective per-iter %.2f not above base %d", fr.Name(), eff, fr.PerIter)
			}
		}
	}
	// Variants must differ in code but share the kind.
	a := BuildFragment(KChase, 0, HotBase)
	b := BuildFragment(KChase, 1, HotBase)
	if len(a.Words) == len(b.Words) {
		t.Error("variants should differ in length (signature)")
	}
	if !strings.HasPrefix(a.Name(), "chase/") {
		t.Errorf("name %q", a.Name())
	}
}

// TestKernelIterationCount runs one kernel in isolation and checks the
// PerIter accounting against actual executed instructions.
func TestKernelIterationCount(t *testing.T) {
	frag := BuildFragment(KALU, 0, HotBase)
	img := BuildKernelImage(frag, 256, 16, 8) // episodes ~never fire
	m := vm.New(vm.Config{})
	m.Load(img)
	// Run the dispatcher up to the first kernel entry.
	for m.PC() < HotBase {
		m.Run(1, nil)
	}
	start := m.Stats().Instructions
	// Execute exactly 10 loop iterations' worth from the loop start.
	m.Run(uint64(frag.Prologue), nil)
	afterProlog := m.Stats().Instructions
	m.Run(uint64(10*frag.PerIter), nil)
	if got := m.Stats().Instructions - afterProlog; got != uint64(10*frag.PerIter) {
		t.Fatalf("executed %d", got)
	}
	_ = start
	// The PC must be back at the loop start (whole iterations).
	loopStart := HotBase + uint64(frag.Prologue)*8
	if m.PC() != loopStart {
		t.Fatalf("after 10 iterations pc=%#x, want loop start %#x (PerIter miscounted)",
			m.PC(), loopStart)
	}
}

func TestDefaultIntervalLen(t *testing.T) {
	if DefaultIntervalLen(100_000_000) != 10_000 {
		t.Fatal("1/10000 rule broken")
	}
	if DefaultIntervalLen(1_000_000) != 4000 {
		t.Fatal("floor broken")
	}
	if DefaultIntervalLen(100_000_000_000) != 1_000_000 {
		t.Fatal("cap broken")
	}
}

func TestSeedStability(t *testing.T) {
	// Seeds are part of the experimental setup: changing them silently
	// would change every generated benchmark.
	if SeedFromName("gzip") != SeedFromName("gzip") {
		t.Fatal("seed not deterministic")
	}
	if SeedFromName("gzip") == SeedFromName("vpr") {
		t.Fatal("seed collision")
	}
	if got, want := SeedFromName("gzip"), uint64(0x3ffceb726a921155); got != want {
		t.Fatalf(`SeedFromName("gzip") = %#x, want %#x`, got, want)
	}
}

// TestRNGPick drives Pick through workload's NewRNG, the spelling the
// benchmark harness uses, so the alias keeps mix.RNG's weighted pick.
func TestRNGPick(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[r.Pick([]int{1, 2, 1})]++
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("weighted pick ignored weights: %v", counts)
	}
	if r.Pick([]int{0, 0}) != 0 {
		t.Fatal("zero weights must fall back to 0")
	}
}
