package check

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hostcost"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/vm"
)

func TestCheckProgramManySeeds(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 30; seed++ {
		rep, div, err := CheckProgram(seed, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
		if len(rep.Checks) != 5 {
			t.Fatalf("seed %d: ran %v, want 5 checks", seed, rep.Checks)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a, b := Generate(42), Generate(42)
	if len(a.Image.Segments) != len(b.Image.Segments) || a.Image.Entry != b.Image.Entry {
		t.Fatal("image shape differs across generations")
	}
	wa, wb := a.Image.Segments[0].Words, b.Image.Segments[0].Words
	if len(wa) != len(wb) {
		t.Fatalf("word count %d != %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("word %d differs: %#x != %#x", i, wa[i], wb[i])
		}
	}
	c := Generate(43)
	if len(c.Image.Segments[0].Words) == len(wa) && c.Image.Entry == a.Image.Entry {
		// Different seeds may coincide in shape, but identical length AND
		// identical content would mean the seed is ignored.
		same := true
		for i, w := range c.Image.Segments[0].Words {
			if w != wa[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds generated identical programs")
		}
	}
}

// TestGeneratedProgramsExerciseSubsystems asserts the generator's
// programs collectively drive every VM statistic the paper's metrics
// monitor — otherwise the differential checks would be vacuous.
func TestGeneratedProgramsExerciseSubsystems(t *testing.T) {
	t.Parallel()
	var agg vm.Stats
	var phases int
	for seed := uint64(1); seed <= 25; seed++ {
		prog := Generate(seed)
		m := vm.New(GenVMConfig())
		m.Load(prog.Image)
		if _, err := runToHalt(m, 509, 2<<20, seed); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		agg.Instructions += s.Instructions
		agg.MemReads += s.MemReads
		agg.MemWrites += s.MemWrites
		agg.Branches += s.Branches
		agg.TakenBr += s.TakenBr
		agg.PageFaults += s.PageFaults
		agg.TLBRefills += s.TLBRefills
		agg.Syscalls += s.Syscalls
		agg.TCInvalidations += s.TCInvalidations
		agg.TCTranslations += s.TCTranslations
		agg.IOOps += s.IOOps
		agg.DiskReads += s.DiskReads
		agg.DiskWrites += s.DiskWrites
		agg.ConsoleBytes += s.ConsoleBytes
		phases += len(m.PhaseLog())
	}
	for name, v := range map[string]uint64{
		"instructions":     agg.Instructions,
		"mem reads":        agg.MemReads,
		"mem writes":       agg.MemWrites,
		"branches":         agg.Branches,
		"taken branches":   agg.TakenBr,
		"page faults":      agg.PageFaults,
		"TLB refills":      agg.TLBRefills,
		"syscalls":         agg.Syscalls,
		"TC invalidations": agg.TCInvalidations,
		"TC translations":  agg.TCTranslations,
		"I/O ops":          agg.IOOps,
		"disk reads":       agg.DiskReads,
		"disk writes":      agg.DiskWrites,
		"console bytes":    agg.ConsoleBytes,
		"phase marks":      uint64(phases),
	} {
		if v == 0 {
			t.Errorf("generated programs never produced %s", name)
		}
	}
}

// lockstepLegs are the program-level checks, each a set of lanes in the
// one chunked lockstep loop, by the Check name each reports under.
var lockstepLegs = []struct {
	name string
	run  func(*Program, Options) (*Divergence, error)
	// r15 is the Field an injected r15 corruption is reported under: the
	// two-lane legs name the register alone, the batch leg also the pair
	// of lanes that disagreed.
	r15 string
}{
	{"lockstep", func(p *Program, o Options) (*Divergence, error) {
		div, _, err := Lockstep(p, o)
		return div, err
	}, "reg[r15]"},
	{"snapshot-roundtrip", SnapshotRoundTrip, "reg[r15]"},
	{"serialized-roundtrip", SerializedRoundTrip, "reg[r15]"},
	{"replay-determinism", ReplayDeterminism, "reg[r15]"},
	{"chunk-agreement", ChunkAgreement, "reg[r15]"},
	{"batch-invariance", BatchInvariance, "reg[r15] (per-event vs batch=1)"},
}

// TestLockstepReportsInjectedRegisterFault corrupts one machine's
// architectural state mid-run and requires the differ of every lockstep
// leg to report a divergence under its own name with an actionable
// window, proving the comparison is live.
func TestLockstepReportsInjectedRegisterFault(t *testing.T) {
	t.Parallel()
	for _, leg := range lockstepLegs {
		prog := Generate(1)
		o := DefaultOptions()
		injected := false
		o.Hook = func(step int, ref, other *vm.Machine) {
			if !injected {
				injected = true
				// r15 is outside every register class generated code writes,
				// so the fault cannot be masked by later instructions.
				other.SetReg(15, 0xdeadbeef)
			}
		}
		div, err := leg.run(prog, o)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if !injected {
			t.Fatalf("%s: program halted before the fault could be injected", leg.name)
		}
		if div == nil {
			t.Fatalf("%s: differ missed an injected register corruption", leg.name)
		}
		if div.Field != leg.r15 {
			t.Errorf("%s: divergence field = %q, want %q", leg.name, div.Field, leg.r15)
		}
		if !strings.Contains(div.Window, "=>") {
			t.Errorf("%s: divergence window missing pc marker:\n%s", leg.name, div.Window)
		}
		if div.Check != leg.name || !strings.Contains(div.Error(), leg.name) {
			t.Errorf("%s: report does not identify the check: %s", leg.name, div.Error())
		}
	}
}

// TestLockstepReportsMemoryPage: a word written behind one machine's
// back, on a page its program never touches, is reported as that page
// with both memories' digests.
func TestLockstepReportsMemoryPage(t *testing.T) {
	t.Parallel()
	o := DefaultOptions()
	addr := o.VM.MemSpan - 8
	o.Hook = func(step int, ref, other *vm.Machine) {
		if step == 0 {
			other.Mem().Write64(addr, 1)
		}
	}
	div, _, err := Lockstep(Generate(1), o)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("memory page %#x", addr>>mem.PageShift)
	if div == nil || div.Field != want || !strings.HasPrefix(div.A, "digest ") || div.A == div.B {
		t.Fatalf("write behind the machine's back reported as %v; want field %q with two digests", div, want)
	}
}

// TestLockstepLegsNameTheBudget: a program that outruns MaxInstr is an
// error that names the budget it outran, from every lockstep leg.
func TestLockstepLegsNameTheBudget(t *testing.T) {
	t.Parallel()
	for _, leg := range lockstepLegs {
		o := DefaultOptions()
		o.MaxInstr = 100
		div, err := leg.run(Generate(1), o)
		if div != nil {
			t.Fatalf("%s:\n%v", leg.name, div)
		}
		if err == nil || !strings.Contains(err.Error(), "did not halt within 100 instructions") {
			t.Errorf("%s: error does not name the budget: %v", leg.name, err)
		}
	}
}

// TestBatchInvarianceReportsDroppedEvent: a lane whose sink loses one
// event reaches every sync point in the reference's machine state, so
// only the delivered-event comparison can see it.
func TestBatchInvarianceReportsDroppedEvent(t *testing.T) {
	t.Parallel()
	prog := Generate(1)
	o := DefaultOptions()
	lossy := batchLane("batch=64", prog, o, 64)
	dropped := false
	lossy.sink = vm.BatchFunc(func(evs []vm.Event) {
		if !dropped && len(evs) > 0 {
			dropped, evs = true, evs[1:]
		}
		lossy.count.OnEvents(evs)
	})
	div, _, err := lockstep(prog, o, []*lane{perEventLane(prog, o), lossy})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil || !strings.HasPrefix(div.Field, "events delivered") {
		t.Fatalf("dropped event not reported as events delivered: %v", div)
	}
	if !strings.Contains(div.Field, "per-event vs batch=64") {
		t.Errorf("divergence does not name the two lanes: %q", div.Field)
	}
}

// TestArtifactLoopComparesEveryVariant pins the artifact-level loop on
// a render that simulates nothing: one render for the reference and one
// per variant; a variant one byte off fails naming leg, variant and
// first differing line; a variant whose non-vacuity hook errors fails
// as vacuous.
func TestArtifactLoopComparesEveryVariant(t *testing.T) {
	t.Parallel()
	const bundle = "table 2\nfigure 8\n"
	variants := func(hookErr error) []artifactVariant {
		return []artifactVariant{
			{label: "first", opts: experiments.Options{Scale: 1}},
			{label: "second", opts: experiments.Options{Scale: 2}, vacuous: func() error { return hookErr }},
		}
	}
	for bad := 0; bad <= 2; bad++ {
		renders := 0
		render := func(o experiments.Options) ([]byte, error) {
			renders++
			if bad != 0 && o.Scale == bad {
				return []byte("table 2\nfigure 9\n"), nil
			}
			return []byte(bundle), nil
		}
		err := compareArtifacts("some-leg", render, experiments.Options{}, variants(nil))
		switch {
		case bad == 0 && (err != nil || renders != 3):
			t.Errorf("%d renders, err %v; want 3 clean renders", renders, err)
		case bad != 0 && err == nil:
			t.Errorf("variant %d was one byte off and the loop passed", bad)
		case bad != 0 && !(strings.Contains(err.Error(), "some-leg") && strings.Contains(err.Error(), []string{"first", "second"}[bad-1]) &&
			strings.Contains(err.Error(), "line 2") && strings.Contains(err.Error(), "figure 9")):
			t.Errorf("error does not name leg, variant and first differing line: %v", err)
		}
	}
	render := func(experiments.Options) ([]byte, error) { return []byte(bundle), nil }
	err := compareArtifacts("some-leg", render, experiments.Options{}, variants(errors.New("nothing happened")))
	if err == nil || !strings.Contains(err.Error(), "vacuous") || !strings.Contains(err.Error(), "second") {
		t.Errorf("failing non-vacuity hook not reported as vacuous: %v", err)
	}
}

// TestLockstepReportsMissedTCInvalidation emulates the classic DBT bug
// the harness exists to catch: guest code is modified but one machine's
// translation cache keeps executing the stale translation. The injector
// patches the probe slot in BOTH machines' memory without telling
// either translation cache (mem.Memory.Write64 bypasses the VM's SMC
// detection), then silently drops only the fast machine's translations
// by restoring a
// *serialized* snapshot round-trip (a deserialized snapshot carries
// block PCs only, so the restore re-decodes them from the patched
// memory image). The fast machine
// picks up the new code, the event machine keeps running the stale
// block — exactly what a skipped invalidation does — and the differ
// must report the resulting architectural divergence. The probe slot
// lives on a page no generated store touches, so the program's own SMC
// traffic cannot legitimately invalidate the stale block and hide the
// fault.
func TestLockstepReportsMissedTCInvalidation(t *testing.T) {
	t.Parallel()
	prog := Generate(1)
	o := DefaultOptions()
	patched := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1008})
	injected := false
	o.Hook = func(step int, fast, event *vm.Machine) {
		if !injected {
			injected = true
			fast.Mem().Write64(prog.ProbeSlot, patched)
			event.Mem().Write64(prog.ProbeSlot, patched)
			// Serialize/deserialize so the restore re-decodes every
			// block from the patched memory: fast retranslates.
			var buf bytes.Buffer
			if _, err := fast.Snapshot().WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			snap, err := vm.ReadSnapshot(&buf)
			if err != nil {
				t.Error(err)
				return
			}
			if err := fast.Restore(snap); err != nil {
				t.Error(err)
			}
		}
	}
	div, _, err := Lockstep(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("program halted before the fault could be injected")
	}
	if div == nil {
		t.Fatal("differ missed a stale-translation (skipped invalidation) fault")
	}
	if f := div.Field; f != "pc" && !strings.HasPrefix(f, "reg[") && !strings.HasPrefix(f, "memory") {
		t.Errorf("divergence field %q is not architectural (pc, a register or memory):\n%v", f, div)
	}
	t.Logf("reported divergence:\n%v", div)
}

// TestLockstepNamesStaleRestoreLane: a restore lane that swaps in the
// snapshot it took a sync point earlier must be reported at that sync
// point, under its own check name and label.
func TestLockstepNamesStaleRestoreLane(t *testing.T) {
	t.Parallel()
	prog := Generate(1)
	o := DefaultOptions()
	var prev *vm.Snapshot
	stale := &lane{check: "snapshot-roundtrip", label: "stale restore", m: load(prog, o.VM),
		swap: func(m *vm.Machine, cfg vm.Config) (*vm.Machine, error) {
			snap := prev
			prev = m.Snapshot()
			if snap == nil {
				snap = prev
			}
			return restored(snap, cfg)
		}}
	lanes := []*lane{fastLane(prog, o), replayLane(prog, o), stale}
	lanes[0].label = "fast"
	div, _, err := lockstep(prog, o, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("differ missed a restore from a stale snapshot")
	}
	if div.Check != "snapshot-roundtrip" || !strings.HasSuffix(div.Field, " (fast vs stale restore)") || div.Step != 1 {
		t.Errorf("stale restore reported as %s at step %d, field %q; want snapshot-roundtrip at step 1 naming the lane", div.Check, div.Step, div.Field)
	}
}

// runToHalt drives m in chunks until it halts, returning instructions
// executed; errors if the budget is exhausted first.
func runToHalt(m *vm.Machine, chunk, budget uint64, seed uint64) (uint64, error) {
	var total uint64
	for {
		n := m.Run(chunk, nil)
		total += n
		if done, err := chunkEnd(m, n, total, budget, seed); done || err != nil {
			return total, err
		}
	}
}

func TestPolicyDeterminism(t *testing.T) {
	t.Parallel()
	if err := PolicyDeterminism("gzip", core.Options{Scale: 50_000}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointEquivalencePolicies(t *testing.T) {
	t.Parallel()
	if err := CheckpointEquivalence("gzip", core.Options{Scale: 50_000}, nil); err != nil {
		t.Fatal(err)
	}
}

// offAtRun wraps a policy: it counts Run calls and, on call number bad
// (1-based; 0 = never), perturbs the result — by default, an estimate
// one ulp off.
type offAtRun struct {
	sampling.Policy
	runs    *int
	bad     int
	perturb func(*sampling.Result)
}

func (p offAtRun) Run(s *core.Session) (sampling.Result, error) {
	res, err := p.Policy.Run(s)
	if *p.runs++; *p.runs == p.bad {
		if p.perturb == nil {
			res.EstIPC = math.Nextafter(res.EstIPC, 2*res.EstIPC)
		} else {
			p.perturb(&res)
		}
	}
	return res, err
}

// TestPolicyLegsCompareEveryRun pins what the four per-policy legs share:
// each makes its fixed number of runs per policy and compares every one
// of them with the first — an estimate one ulp off in any later run
// fails the leg, by name. Then one row per Result field: a replay that
// differs in that field alone, the cost report's per-mode mix included,
// fails the comparison and names the field.
func TestPolicyLegsCompareEveryRun(t *testing.T) {
	t.Parallel()
	for _, leg := range []struct {
		name string
		run  func(string, core.Options, []sampling.Policy) error
		runs int
	}{
		{"policy determinism", PolicyDeterminism, 2},
		{"checkpoint equivalence", CheckpointEquivalence, 4},
		{"batch invariance", PolicyBatchInvariance, 1 + len(BatchSizes)},
		{"obs invariance", ObsInvariance, 2},
	} {
		for bad := 0; bad <= leg.runs; bad++ {
			if bad == 1 {
				continue // the reference run itself
			}
			runs := 0
			p := offAtRun{sampling.NewDynamic(vm.MetricCPU, 300, 1, 10), &runs, bad, nil}
			err := leg.run("gzip", core.Options{Scale: 100_000}, []sampling.Policy{p})
			switch {
			case bad == 0 && (err != nil || runs != leg.runs):
				t.Errorf("%s: %d runs, err %v; want %d clean runs", leg.name, runs, err, leg.runs)
			case bad != 0 && err == nil:
				t.Errorf("%s: run %d of %d was one ulp off and the leg passed", leg.name, bad, leg.runs)
			case bad != 0 && !(strings.Contains(err.Error(), leg.name) && strings.Contains(err.Error(), p.Name()) &&
				strings.Contains(err.Error(), "gzip") && strings.Contains(err.Error(), "EstIPC")):
				t.Errorf("%s: error does not name leg, policy, bench and field: %v", leg.name, err)
			}
		}
	}

	ulp := func(f *float64) { *f = math.Nextafter(*f, math.Inf(1)) }
	for _, row := range []struct {
		field   string
		perturb func(*sampling.Result)
	}{
		{"Policy", func(r *sampling.Result) { r.Policy += "'" }},
		{"Bench", func(r *sampling.Result) { r.Bench += "'" }},
		{"EstIPC", func(r *sampling.Result) { ulp(&r.EstIPC) }},
		{"Instructions", func(r *sampling.Result) { r.Instructions++ }},
		{"Samples", func(r *sampling.Result) { r.Samples++ }},
		{"CPIInterval", func(r *sampling.Result) { r.CPIInterval = &stats.Interval{} }},
		{"TargetMet", func(r *sampling.Result) { r.TargetMet = !r.TargetMet }},
		{"Detections[0]", func(r *sampling.Result) { r.Detections[0]++ }},
		{"Trace", func(r *sampling.Result) { r.Trace = append(r.Trace, sampling.IntervalTrace{}) }},
		{"Cost.Units", func(r *sampling.Result) { ulp(&r.Cost.Units) }},
		{"Cost.ByMode[0]", func(r *sampling.Result) { ulp(&r.Cost.ByMode[hostcost.Fast]) }},
		// Instructions moved between modes at an unchanged total.
		{"Cost.Instrs[0]", func(r *sampling.Result) {
			r.Cost.Instrs[hostcost.Fast]++
			r.Cost.Instrs[hostcost.Timing]--
		}},
		{"Cost.Switches", func(r *sampling.Result) { r.Cost.Switches++ }},
		{"Cost.Restores", func(r *sampling.Result) { r.Cost.Restores++ }},
		{"Cost.Seconds", func(r *sampling.Result) { ulp(&r.Cost.Seconds) }},
		{"Cost.PaperSeconds", func(r *sampling.Result) { ulp(&r.Cost.PaperSeconds) }},
	} {
		runs := 0
		p := offAtRun{sampling.NewDynamic(vm.MetricCPU, 300, 1, 10), &runs, 2, row.perturb}
		err := PolicyDeterminism("gzip", core.Options{Scale: 100_000}, []sampling.Policy{p})
		if err == nil || !strings.Contains(err.Error(), "the replay run differs: "+row.field+" ") {
			t.Errorf("a replay differing in %s alone: err %v", row.field, err)
		}
	}
}

func TestDisasmWindowRendersAroundPC(t *testing.T) {
	t.Parallel()
	prog := Generate(7)
	m := vm.New(GenVMConfig())
	m.Load(prog.Image)
	m.Run(100, nil)
	w := DisasmWindow(m, m.PC(), 4, 4)
	if !strings.Contains(w, "=>") {
		t.Fatalf("window missing pc marker:\n%s", w)
	}
	if len(strings.Split(strings.TrimSpace(w), "\n")) < 9 {
		t.Fatalf("window too small:\n%s", w)
	}
}

func TestBatchInvarianceManySeeds(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 20; seed++ {
		div, err := BatchInvariance(Generate(seed), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
	}
}

func TestPolicyBatchInvariance(t *testing.T) {
	t.Parallel()
	if err := PolicyBatchInvariance("gzip", core.Options{Scale: 50_000}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckProgramStressConfig runs the full differential suite under a
// deliberately hostile machine configuration: a translation cache so
// small it flushes constantly (chain memos die almost as soon as they
// form), a tiny TLB, per-event batch delivery, and a chunk of 1 so every
// sync point lands mid-everything. Any acceleration state that leaks
// across a flush or a one-instruction Run boundary shows up as a
// lockstep or replay divergence here. At a chunk of 1 the chunks lane
// would run the reference's own partition, so ChunkAgreement runs under
// the same configuration at a chunk of 7, and both it and CheckProgram
// must refuse or leave out the vacuous comparison at 1.
func TestCheckProgramStressConfig(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	opts := DefaultOptions()
	opts.VM.TCMaxBlocks = 3
	opts.VM.TLBEntries = 4
	opts.VM.EventBatch = 1
	opts.Chunk = 1
	opts.MaxInstr = 80_000
	for seed := uint64(1); seed <= 3; seed++ {
		rep, div, err := CheckProgram(seed, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d:\n%v", seed, div)
		}
		if len(rep.Checks) == 0 {
			t.Fatalf("seed %d: no checks ran", seed)
		}
		for _, c := range rep.Checks {
			if c == "chunk-agreement" {
				t.Fatalf("seed %d: chunk-agreement reported as run at a chunk of 1", seed)
			}
		}
		if _, err := ChunkAgreement(Generate(seed), opts); !errors.Is(err, ErrOneInstructionChunk) {
			t.Fatalf("seed %d: ChunkAgreement at a chunk of 1 returned %v; want ErrOneInstructionChunk", seed, err)
		}
		chunked := opts
		chunked.Chunk = 7
		div, err = ChunkAgreement(Generate(seed), chunked)
		if err != nil {
			t.Fatalf("seed %d: chunk agreement at chunk 7: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d: chunk agreement at chunk 7:\n%v", seed, div)
		}
	}
}
