package timing

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mix"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Differential tests: the production Core (batch delivery, any split)
// against refCore (per event) on recorded event streams.

const diffScale = 50_000 // benchmark scale the streams are recorded at

// record runs img, skipping skip instructions at full speed, and
// returns the next n retired-instruction events.
func record(img *asm.Image, skip uint64, n int) []vm.Event {
	m := vm.New(vm.Config{})
	m.Load(img)
	m.Run(skip, nil)
	evs := make([]vm.Event, 0, n)
	m.Run(uint64(n), vm.BatchFunc(func(b []vm.Event) { evs = append(evs, b...) }))
	return evs
}

// benchStream records three windows of a suite benchmark: the start
// (initialisation, prefault and I/O syscalls), and two further into the
// phase schedule.
func benchStream(name string) []vm.Event {
	spec, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	img, _ := workload.BuildScaled(spec, diffScale)
	budget := spec.ScaledInstr(diffScale)
	var evs []vm.Event
	for _, skip := range []uint64{0, budget / 4, budget / 2} {
		evs = append(evs, record(img, skip, 25_000)...)
	}
	return evs
}

const (
	progCode  = 0x0001_0000
	progData  = 0x0010_0000
	progIOBuf = 0x0020_0000
	progStack = 0x0030_0000
)

// syscallProgram is a loop dominated by system calls of every kind, so
// the pipeline-drain path and the fetch-line reset after it run every
// few instructions. It also carries the classes the suite benchmarks
// never emit (nop, fdiv).
func syscallProgram() *asm.Image {
	b := asm.NewBuilder(progCode)
	b.Label("entry")
	b.I(isa.OpMovi, 20, 0, progData)
	b.I(isa.OpMovi, 21, 0, 1500)
	b.Label("loop")
	b.I(isa.OpMovi, 10, 0, progData+64)
	b.I(isa.OpMovi, 11, 0, 16)
	b.Sys(isa.SysConsoleOut)
	b.Sys(isa.SysTimeQuery)
	b.R(isa.OpAdd, 1, 1, 10)
	b.St(1, 20, 64)
	b.I(isa.OpAndi, 10, 21, 31)
	b.Sys(isa.SysPhaseMark)
	b.Ld(2, 20, 8)
	b.R(isa.OpMul, 3, 2, 1)
	b.Nop()
	b.I(isa.OpFcvtIF, 6, 21, 0)
	b.R(isa.OpFdiv, 7, 6, 7)
	b.R(isa.OpDiv, 8, 3, 21)
	b.I(isa.OpAndi, 10, 21, 15)
	b.I(isa.OpMovi, 11, 0, progIOBuf)
	b.I(isa.OpMovi, 12, 0, 1)
	b.Sys(isa.SysBlockRead)
	b.Ld(4, 11, 24)
	b.I(isa.OpAndi, 10, 21, 7)
	b.Sys(isa.SysBlockWrite)
	b.I(isa.OpAddi, 21, 21, -1)
	b.Br(isa.OpBne, 21, isa.RegZero, "loop")
	b.I(isa.OpMovi, 10, 0, 0)
	b.Sys(isa.SysExit)
	img := &asm.Image{Entry: b.Addr("entry")}
	img.AddSegment(progCode, b.Words())
	return img
}

// callProgram nests direct calls deeper than the 16-entry return
// address stack (so it wraps in both directions), alternates the depth,
// and makes indirect calls whose target alternates (BTB misses).
func callProgram() *asm.Image {
	const depth = 20
	b := asm.NewBuilder(progCode)
	for i := 0; i < depth; i++ {
		b.Label(fmt.Sprintf("f%d", i))
		if i == depth-1 {
			b.R(isa.OpXor, 1, 1, 2)
			b.Jalr(0, isa.RegLR, 0)
			break
		}
		b.I(isa.OpAddi, isa.RegSP, isa.RegSP, -8)
		b.St(isa.RegLR, isa.RegSP, 0)
		b.I(isa.OpAddi, 2, 2, int32(i+1))
		b.Jal(isa.RegLR, fmt.Sprintf("f%d", i+1))
		b.Ld(isa.RegLR, isa.RegSP, 0)
		b.I(isa.OpAddi, isa.RegSP, isa.RegSP, 8)
		b.Jalr(0, isa.RegLR, 0)
	}
	b.Label("leafA")
	b.I(isa.OpAddi, 3, 3, 1)
	b.Jalr(0, isa.RegLR, 0)
	b.Label("leafB")
	b.I(isa.OpAddi, 4, 4, 1)
	b.Jalr(0, isa.RegLR, 0)

	b.Label("entry")
	b.I(isa.OpMovi, isa.RegSP, 0, progStack)
	b.I(isa.OpMovi, 21, 0, 600)
	b.I(isa.OpMovi, 22, 0, int32(b.Addr("leafA")))
	b.I(isa.OpMovi, 23, 0, int32(b.Addr("leafB")))
	b.Label("loop")
	b.I(isa.OpAndi, 5, 21, 1)
	b.Br(isa.OpBne, 5, isa.RegZero, "shallow")
	b.Jal(isa.RegLR, "f0") // 20 deep: overflows the RAS
	b.Jalr(isa.RegLR, 22, 0)
	b.Jmp("next")
	b.Label("shallow")
	b.Jal(isa.RegLR, "f12") // 8 deep: fits
	b.Jalr(isa.RegLR, 23, 0)
	b.Label("next")
	b.I(isa.OpAndi, 5, 21, 3)
	b.Br(isa.OpBne, 5, isa.RegZero, "skip")
	b.Jalr(isa.RegLR, 23, 0)
	b.Label("skip")
	b.I(isa.OpAddi, 21, 21, -1)
	b.Br(isa.OpBne, 21, isa.RegZero, "loop")
	b.I(isa.OpMovi, 10, 0, 0)
	b.Sys(isa.SysExit)
	img := &asm.Image{Entry: b.Addr("entry")}
	img.AddSegment(progCode, b.Words())
	return img
}

var (
	streamsOnce sync.Once
	streamsMap  map[string][]vm.Event
	streamNames = []string{"gzip", "mcf", "swim", "perlbmk", "syscalls", "calls"}
)

// streams returns the recorded event streams, built once per test
// binary. The slices are shared and must not be written.
func streams() map[string][]vm.Event {
	streamsOnce.Do(func() {
		streamsMap = map[string][]vm.Event{
			"syscalls": record(syscallProgram(), 0, 40_000),
			"calls":    record(callProgram(), 0, 60_000),
		}
		for _, name := range streamNames[:4] {
			streamsMap[name] = benchStream(name)
		}
	})
	return streamsMap
}

// TestStreamsCoverTheModel guards the differential tests against
// vacuity: the recorded streams must reach every instruction class and
// the paths the generator programs exist for.
func TestStreamsCoverTheModel(t *testing.T) {
	var byClass [isa.NumClasses]int
	for _, evs := range streams() {
		for i := range evs {
			byClass[evs[i].Class]++
		}
	}
	for cl, n := range byClass {
		if n == 0 && isa.Class(cl) != isa.ClassHalt {
			t.Errorf("no recorded event of class %v", isa.Class(cl))
		}
	}
	sys := 0
	for _, ev := range streams()["syscalls"] {
		if ev.Class == isa.ClassSys {
			sys++
		}
	}
	if len(streams()["syscalls"]) == 0 || sys*8 < len(streams()["syscalls"]) {
		t.Errorf("syscall stream: %d syscalls in %d events", sys, len(streams()["syscalls"]))
	}
	r := newRefCore(DefaultConfig())
	perEvent(r.OnEvent).OnEvents(streams()["calls"])
	st := r.pred.Stats()
	if st.Returns < 1000 || st.ReturnMiss == 0 || st.TargetMiss == 0 {
		t.Errorf("call stream does not stress the RAS and BTB: %+v", st)
	}
}

// splitSizes cuts n events into batch sizes drawn from a seeded mix of
// the fixed sizes the batch-invariance sweep uses (1, 3, 64, 4096) and
// arbitrary ones.
func splitSizes(n int, seed uint64) []int {
	rng := mix.NewRNG(seed)
	fixed := []int{1, 3, 64, 4096}
	var sizes []int
	for n > 0 {
		var s int
		if k := rng.Intn(8); k < len(fixed) {
			s = fixed[k]
		} else {
			s = 1 + rng.Intn(700)
		}
		if s > n {
			s = n
		}
		sizes = append(sizes, s)
		n -= s
	}
	return sizes
}

// midLineSplits counts batch boundaries that fall inside a fetch line:
// the event before and the event after the boundary share a line, so
// lastFetchLine must survive the write-back and reload.
func midLineSplits(evs []vm.Event, sizes []int) int {
	n, at := 0, 0
	for _, s := range sizes[:len(sizes)-1] {
		at += s
		if evs[at-1].PC>>6 == evs[at].PC>>6 {
			n++
		}
	}
	return n
}

// oddConfig is a geometry with no power of two and no Table 1 pool
// size in it, so the generic unit scan and every ring wrap run.
func oddConfig() Config {
	cfg := DefaultConfig()
	cfg.Width = 2
	cfg.Window = 7
	cfg.LoadBuf = 3
	cfg.StoreBuf = 2
	cfg.IntALU = 3
	cfg.MemPorts = 1
	cfg.FPUs = 5
	return cfg
}

type deliverMode int

const (
	modeDetail deliverMode = iota
	modeWarm
	modeMixed // warm and detail batches alternate at random, as a sampling policy drives one core
)

// runDiff feeds evs to a Core in the given batch sizes and to a refCore
// per event, and requires equal state after every batch.
func runDiff(t *testing.T, cfg Config, evs []vm.Event, sizes []int, mode deliverMode, seed uint64) {
	t.Helper()
	c, r := NewCore(cfg), newRefCore(cfg)
	warm, refDetail, refWarm := c.WarmSink(), perEvent(r.OnEvent), perEvent(r.warm)
	rng := mix.NewRNG(seed ^ 0x5eed)
	at := 0
	for bi, s := range sizes {
		batch := evs[at : at+s]
		warming := mode == modeWarm || (mode == modeMixed && rng.Intn(2) == 0)
		if warming {
			warm.OnEvents(batch)
			refWarm.OnEvents(batch)
		} else {
			c.OnEvents(batch)
			refDetail.OnEvents(batch)
		}
		at += s
		if d := diffState(c, r); d != "" {
			t.Fatalf("batch %d (events %d..%d, warm=%v) diverged from the reference:\n%s", bi, at-s, at, warming, d)
		}
	}
}

// TestCoreMatchesReference is the model's oracle test: on every
// recorded stream, for seeded random batch splits, Core.OnEvents leaves
// exactly the state refCore.OnEvent leaves, after every batch.
func TestCoreMatchesReference(t *testing.T) {
	for _, name := range streamNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			evs := streams()[name]
			midLine := 0
			for seed := uint64(1); seed <= 3; seed++ {
				sizes := splitSizes(len(evs), seed*977+uint64(len(name)))
				midLine += midLineSplits(evs, sizes)
				runDiff(t, DefaultConfig(), evs, sizes, modeDetail, seed)
			}
			if midLine == 0 {
				t.Fatal("no batch split fell inside a fetch line")
			}
			runDiff(t, oddConfig(), evs, splitSizes(len(evs), 4), modeDetail, 4)
		})
	}
}

// TestWarmSinkMatchesReference is the same for functional warming, and
// for warm and detail batches interleaved on one core.
func TestWarmSinkMatchesReference(t *testing.T) {
	for _, name := range streamNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			evs := streams()[name]
			runDiff(t, DefaultConfig(), evs, splitSizes(len(evs), 11), modeWarm, 11)
			runDiff(t, DefaultConfig(), evs, splitSizes(len(evs), 12), modeMixed, 12)
			runDiff(t, oddConfig(), evs, splitSizes(len(evs), 13), modeMixed, 13)
		})
	}
}

// TestFixedBatchSizesMatchReference covers the sizes the batch-
// invariance sweep uses as uniform splits, plus one-event batches over
// the whole stream with warming and detail alternating.
func TestFixedBatchSizesMatchReference(t *testing.T) {
	evs := streams()["gzip"][:30_000]
	for _, size := range []int{1, 3, 64, 4096} {
		// Every batch ends in a full state comparison (digests of every
		// table), so small sizes run on a prefix: 400 batches each.
		n := 400 * size
		if n > len(evs) {
			n = len(evs)
		}
		var sizes []int
		for left := n; left > 0; left -= size {
			s := size
			if s > left {
				s = left
			}
			sizes = append(sizes, s)
		}
		runDiff(t, DefaultConfig(), evs[:n], sizes, modeDetail, 0)
		runDiff(t, DefaultConfig(), evs[:n], sizes, modeMixed, uint64(size))
	}

	c, r := NewCore(DefaultConfig()), newRefCore(DefaultConfig())
	w := c.WarmSink()
	for i := range evs {
		if i%5000 < 1000 {
			w.OnEvents(evs[i : i+1])
			r.warm(&evs[i])
		} else {
			c.OnEvents(evs[i : i+1])
			r.OnEvent(&evs[i])
		}
		if i%1000 == 999 {
			if d := diffState(c, r); d != "" {
				t.Fatalf("per-event delivery diverged by event %d:\n%s", i, d)
			}
		}
	}
}

// TestSharedL2MatchesReference: two cores on one shared L2, batches
// interleaved as the SMP replay stage interleaves them, against two
// reference cores on another.
func TestSharedL2MatchesReference(t *testing.T) {
	cfg, rcfg := DefaultConfig(), DefaultConfig()
	cfg.SharedL2 = cache.New(cfg.L2)
	rcfg.SharedL2 = cache.New(rcfg.L2)
	cores := [2]*Core{NewCore(cfg), NewCore(cfg)}
	refs := [2]*refCore{newRefCore(rcfg), newRefCore(rcfg)}
	evs := [2][]vm.Event{streams()["mcf"], streams()["swim"]}
	const quantum = 1000
	for at := 0; at+quantum <= 50_000; at += quantum {
		for g := range cores {
			batch := evs[g][at : at+quantum]
			cores[g].OnEvents(batch)
			perEvent(refs[g].OnEvent).OnEvents(batch)
		}
		for g := range cores {
			if d := diffState(cores[g], refs[g]); d != "" {
				t.Fatalf("guest %d diverged by event %d:\n%s", g, at+quantum, d)
			}
		}
	}
}
