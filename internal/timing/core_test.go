package timing

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/vm"
)

// feeder drives a Core with synthetic event streams, bypassing the VM —
// each test controls exactly what the pipeline sees.
type feeder struct {
	c  *Core
	pc uint64
}

func newFeeder() *feeder { return &feeder{c: NewCore(DefaultConfig()), pc: 0x1000} }

func (f *feeder) emit(ev vm.Event) {
	if ev.PC == 0 {
		ev.PC = f.pc
	}
	if ev.NextPC == 0 {
		ev.NextPC = ev.PC + isa.InstBytes
	}
	// Code loops within a 4 KB region, like a real kernel: a linearly
	// advancing PC would be a permanent I-cache miss stream.
	f.pc = 0x1000 + (ev.NextPC & 0xfff)
	f.c.OnEvents([]vm.Event{ev})
}

func (f *feeder) alu(rd, rs1, rs2 uint8) {
	f.emit(vm.Event{Op: isa.OpAdd, Class: isa.ClassALU, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (f *feeder) load(rd, rs1 uint8, addr uint64) {
	f.emit(vm.Event{Op: isa.OpLd, Class: isa.ClassLoad, Rd: rd, Rs1: rs1, MemAddr: addr})
}

func (f *feeder) ipcOf(n int, gen func(i int)) float64 {
	// Warm-up pass.
	for i := 0; i < n; i++ {
		gen(i)
	}
	start := f.c.Marker()
	for i := 0; i < n; i++ {
		gen(i)
	}
	return IPC(start, f.c.Marker())
}

// TestIndependentALUReachesWidth: fully independent ALU instructions
// must sustain close to the 3-wide retire limit.
func TestIndependentALUReachesWidth(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(6000, func(i int) { f.alu(uint8(1+i%8), 9, 10) })
	if ipc < 2.7 || ipc > 3.01 {
		t.Fatalf("independent ALU IPC = %.2f, want ~3", ipc)
	}
}

// TestDependentChainSerialises: a single dependence chain runs at 1 IPC
// regardless of width.
func TestDependentChainSerialises(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(6000, func(i int) { f.alu(1, 1, 1) })
	if ipc > 1.05 || ipc < 0.9 {
		t.Fatalf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

// TestDependentMulChain: the multiply latency divides throughput.
func TestDependentMulChain(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(6000, func(i int) {
		f.emit(vm.Event{Op: isa.OpMul, Class: isa.ClassMul, Rd: 1, Rs1: 1, Rs2: 2})
	})
	want := 1.0 / float64(DefaultConfig().MulLat)
	if ipc > want*1.15 || ipc < want*0.85 {
		t.Fatalf("mul chain IPC = %.3f, want ~%.3f", ipc, want)
	}
}

// TestLoadHitLatency: a dependent load chain hitting the L1 runs at
// 1/L1Lat IPC.
func TestLoadLatencyChain(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(4000, func(i int) { f.load(1, 1, 0x4000) })
	want := 1.0 / float64(DefaultConfig().L1Lat)
	if ipc > want*1.2 || ipc < want*0.8 {
		t.Fatalf("L1 load chain IPC = %.3f, want ~%.3f", ipc, want)
	}
}

// TestMemoryMissLatency: dependent loads that always miss to memory run
// at roughly 1/(L1+L2+Mem) IPC.
func TestMemoryMissLatency(t *testing.T) {
	f := newFeeder()
	line := uint64(0)
	ipc := f.ipcOf(4000, func(i int) {
		line += 1 << 18 // new L2 set group every access: guaranteed miss
		f.load(1, 1, 0x100_0000+line)
	})
	cfg := DefaultConfig()
	want := 1.0 / float64(cfg.L1Lat+cfg.L2HitLat+cfg.MemLat+cfg.L2TLBLat+cfg.WalkLat)
	if ipc > want*1.5 || ipc < want*0.6 {
		t.Fatalf("memory chain IPC = %.4f, want ~%.4f", ipc, want)
	}
}

// TestMLPOverlap: independent missing loads overlap; throughput must be
// far higher than the serialised chain.
func TestMLPOverlap(t *testing.T) {
	dep := newFeeder()
	line := uint64(0)
	depIPC := dep.ipcOf(3000, func(i int) {
		line += 1 << 18
		dep.load(1, 1, 0x100_0000+line) // dependent (rd==rs1)
	})
	ind := newFeeder()
	line = 0
	indIPC := ind.ipcOf(3000, func(i int) {
		line += 1 << 18
		ind.load(uint8(1+i%8), 9, 0x100_0000+line) // independent
	})
	if indIPC < depIPC*4 {
		t.Fatalf("no memory-level parallelism: dep=%.4f ind=%.4f", depIPC, indIPC)
	}
}

// TestMispredictPenalty: a always-mispredicting branch stream must cost
// roughly the penalty per branch.
func TestMispredictPenalty(t *testing.T) {
	good := newFeeder()
	goodIPC := good.ipcOf(4000, func(i int) {
		good.emit(vm.Event{Op: isa.OpBne, Class: isa.ClassBranch, Rs1: 1, Rs2: 2, Taken: false})
		good.alu(uint8(1+i%4), 9, 10)
		good.alu(uint8(5+i%3), 9, 10)
	})
	bad := newFeeder()
	x := uint64(0x9e3779b97f4a7c15)
	badIPC := bad.ipcOf(4000, func(i int) {
		x = x*6364136223846793005 + 1
		taken := x>>63 == 1
		ev := vm.Event{Op: isa.OpBne, Class: isa.ClassBranch, Rs1: 1, Rs2: 2, Taken: taken}
		if taken {
			ev.PC = bad.pc
			ev.Target = bad.pc + 64
			ev.NextPC = ev.Target
		}
		bad.emit(ev)
		bad.alu(uint8(1+i%4), 9, 10)
		bad.alu(uint8(5+i%3), 9, 10)
	})
	if badIPC > goodIPC*0.6 {
		t.Fatalf("mispredictions too cheap: good=%.2f bad=%.2f", goodIPC, badIPC)
	}
}

// TestWindowLimitsMLP: with a window much smaller than the latency-
// bandwidth product, fewer misses overlap.
func TestWindowLimitsMLP(t *testing.T) {
	small := DefaultConfig()
	small.Window = 8
	sc := NewCore(small)
	bigc := NewCore(DefaultConfig())
	run := func(c *Core) float64 {
		pc := uint64(0x1000)
		line := uint64(0)
		emit := func(i int) {
			line += 1 << 18
			ev := vm.Event{PC: pc, NextPC: pc + 8, Op: isa.OpLd, Class: isa.ClassLoad,
				Rd: uint8(1 + i%8), Rs1: 9, MemAddr: 0x100_0000 + line}
			pc += 8
			c.OnEvents([]vm.Event{ev})
		}
		for i := 0; i < 2000; i++ {
			emit(i)
		}
		st := c.Marker()
		for i := 0; i < 2000; i++ {
			emit(i)
		}
		return IPC(st, c.Marker())
	}
	if sIPC, bIPC := run(sc), run(bigc); sIPC > bIPC*0.5 {
		t.Fatalf("window size has no effect: small=%.4f big=%.4f", sIPC, bIPC)
	}
}

// TestSyscallSerialises: syscalls drain the pipeline.
func TestSyscallSerialises(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(2000, func(i int) {
		f.emit(vm.Event{Op: isa.OpSys, Class: isa.ClassSys})
		f.alu(1, 9, 10)
	})
	if ipc > 0.2 {
		t.Fatalf("syscall-heavy stream IPC = %.2f, want << 1", ipc)
	}
}

// TestWarmSinkUpdatesStateWithoutCycles: functional warming must warm
// caches and the predictor but not advance time.
func TestWarmSinkUpdatesStateWithoutCycles(t *testing.T) {
	c := NewCore(DefaultConfig())
	w := c.WarmSink()
	before := c.Marker()
	for i := 0; i < 1000; i++ {
		ev := vm.Event{PC: 0x1000, NextPC: 0x1008, Op: isa.OpLd, Class: isa.ClassLoad,
			Rd: 1, Rs1: 2, MemAddr: 0x8000 + uint64(i%16)*64}
		w.OnEvents([]vm.Event{ev})
	}
	if c.Marker() != before {
		t.Fatal("warming must not advance cycles or instruction count")
	}
	_, l1d, _ := c.CacheStats()
	if l1d.Accesses() == 0 {
		t.Fatal("warming must access the caches")
	}
	if !c.l1d.Contains(0x8000) {
		t.Fatal("warmed line must be resident")
	}
}

// TestIPCNeverExceedsWidth is a hard invariant of any stream.
func TestIPCNeverExceedsWidth(t *testing.T) {
	f := newFeeder()
	ipc := f.ipcOf(5000, func(i int) {
		f.emit(vm.Event{Op: isa.OpNop, Class: isa.ClassNop})
	})
	if ipc > float64(DefaultConfig().Width)+0.01 {
		t.Fatalf("IPC %.2f exceeds machine width", ipc)
	}
}

// TestMarkerMonotonic checks markers only move forward.
func TestMarkerMonotonic(t *testing.T) {
	f := newFeeder()
	prev := f.c.Marker()
	for i := 0; i < 1000; i++ {
		f.alu(1, 2, 3)
		m := f.c.Marker()
		if m.Cycles < prev.Cycles || m.Instrs != prev.Instrs+1 {
			t.Fatalf("marker went backwards at %d: %+v -> %+v", i, prev, m)
		}
		prev = m
	}
}

func TestTableRowsComplete(t *testing.T) {
	rows := DefaultConfig().TableRows()
	if len(rows) != 16 {
		t.Fatalf("Table 1 has %d rows, want 16", len(rows))
	}
	want := map[string]string{
		"Fetch/Issue/Retire Width": "3 instructions",
		"Memory Latency":           "190 processor cycles",
		"L2 Unified Cache":         "1MB, 4-way, 128B line size",
	}
	for _, r := range rows {
		if w, ok := want[r[0]]; ok && r[1] != w {
			t.Errorf("%s = %q, want %q", r[0], r[1], w)
		}
	}
}

// TestFDivUnpipelined: back-to-back independent FDIVs are throughput-
// limited by the unpipelined units, unlike pipelined FADDs.
func TestFDivUnpipelined(t *testing.T) {
	fdiv := newFeeder()
	fdivIPC := fdiv.ipcOf(3000, func(i int) {
		fdiv.emit(vm.Event{Op: isa.OpFdiv, Class: isa.ClassFDiv, Rd: uint8(1 + i%8), Rs1: 9, Rs2: 10})
	})
	fadd := newFeeder()
	faddIPC := fadd.ipcOf(3000, func(i int) {
		fadd.emit(vm.Event{Op: isa.OpFadd, Class: isa.ClassFP, Rd: uint8(1 + i%8), Rs1: 9, Rs2: 10})
	})
	if fdivIPC > faddIPC/2 {
		t.Fatalf("fdiv (%.3f) should be far below pipelined fadd (%.3f)", fdivIPC, faddIPC)
	}
	// Four unpipelined units of latency FDivLat: peak 4/FDivLat.
	peak := 4.0 / float64(DefaultConfig().FDivLat)
	if fdivIPC > peak*1.25 {
		t.Fatalf("fdiv IPC %.3f exceeds unit-pool bound %.3f", fdivIPC, peak)
	}
}

// TestStoreBufferBounds: a burst of stores is limited by the store
// buffer and the memory ports, staying well below plain ALU throughput.
func TestStoreBufferThroughput(t *testing.T) {
	st := newFeeder()
	stIPC := st.ipcOf(4000, func(i int) {
		st.emit(vm.Event{Op: isa.OpSt, Class: isa.ClassStore, Rs1: 9, Rs2: 10,
			MemAddr: 0x8000 + uint64(i%512)*8})
	})
	// Two memory ports cap store issue at 2/cycle.
	if stIPC > 2.1 {
		t.Fatalf("store stream IPC %.2f exceeds the memory-port bound", stIPC)
	}
	if stIPC < 1.0 {
		t.Fatalf("store stream IPC %.2f unreasonably low for L1 hits", stIPC)
	}
}

// TestSharedL2SeesBothCores verifies L2 statistics accumulate across
// cores when shared (the smp configuration).
func TestSharedL2AccountsAccesses(t *testing.T) {
	shared := cacheNewForTest()
	cfgA := DefaultConfig()
	cfgA.SharedL2 = shared
	cfgB := DefaultConfig()
	cfgB.SharedL2 = shared
	a, b := NewCore(cfgA), NewCore(cfgB)
	ev := vm.Event{PC: 0x100000, NextPC: 0x100008, Op: isa.OpLd, Class: isa.ClassLoad, Rd: 1, Rs1: 2, MemAddr: 0x40_0000}
	a.OnEvents([]vm.Event{ev})
	ev2 := ev
	ev2.MemAddr = 0x80_0000
	b.OnEvents([]vm.Event{ev2})
	if shared.Stats().Accesses() < 2 {
		t.Fatalf("shared L2 saw %d accesses, want >= 2", shared.Stats().Accesses())
	}
	_, _, l2a := a.CacheStats()
	_, _, l2b := b.CacheStats()
	if l2a != l2b {
		t.Fatal("both cores must report the same shared-L2 statistics")
	}
}

func cacheNewForTest() *cache.Cache {
	return cache.New(DefaultConfig().L2)
}

// TestNewCoreRejectsBadConfig: a non-positive width, ring or pool size
// panics in NewCore, naming the field, instead of deep in the event loop.
func TestNewCoreRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config, int)
	}{
		{"Width", func(c *Config, v int) { c.Width = v }},
		{"Window", func(c *Config, v int) { c.Window = v }},
		{"LoadBuf", func(c *Config, v int) { c.LoadBuf = v }},
		{"StoreBuf", func(c *Config, v int) { c.StoreBuf = v }},
		{"IntALU", func(c *Config, v int) { c.IntALU = v }},
		{"MemPorts", func(c *Config, v int) { c.MemPorts = v }},
		{"FPUs", func(c *Config, v int) { c.FPUs = v }},
	} {
		for _, v := range []int{0, -3} {
			cfg := DefaultConfig()
			tc.set(&cfg, v)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, tc.field) {
						t.Errorf("%s = %d: panic %q does not name the field", tc.field, v, msg)
					}
				}()
				NewCore(cfg)
			}()
		}
	}
	// The smallest legal geometry works.
	cfg := DefaultConfig()
	cfg.Width, cfg.Window, cfg.LoadBuf, cfg.StoreBuf, cfg.IntALU, cfg.MemPorts, cfg.FPUs = 1, 1, 1, 1, 1, 1, 1
	c := NewCore(cfg)
	c.OnEvents(streams()["gzip"][:2000])
	if c.instrs != 2000 {
		t.Fatalf("minimal core retired %d of 2000", c.instrs)
	}
}
