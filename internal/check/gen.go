package check

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mix"
	"repro/internal/vm"
)

// Guest memory layout for generated checker programs. Deliberately
// smaller than the workload generator's layout so snapshots stay cheap
// and the configured TLB/translation cache are actually contended.
const (
	genCodeBase  = 0x0001_0000
	genProbeBase = genCodeBase + 0x8000 // probe routine, on its own page
	genDataBase  = 0x0010_0000
	genDataSpan  = 0x0008_0000 // 512 KB working set: 128 pages
	genIOBuf     = genDataBase + genDataSpan
	genMemSpan   = 1 << 21 // 2 MB guest address space
)

// GenVMConfig returns the machine configuration generated programs are
// checked under: a small TLB (so refills keep happening) and a small
// translation cache (so capacity flushes occur under SMC pressure).
func GenVMConfig() vm.Config {
	return vm.Config{
		MemSpan:     genMemSpan,
		TLBEntries:  64,
		TCMaxBlocks: 64,
	}
}

// Program is one generated guest program plus the metadata checks and
// fault-injection tests need.
type Program struct {
	Seed  uint64
	Image *asm.Image
	// PatchSlots are the addresses of the self-modifying-code slots in
	// the patch area; the slots are executed once per outer-loop
	// iteration and are the store targets of the generated SMC actions.
	PatchSlots []uint64
	// ProbeSlot is the address of the first instruction of the probe
	// routine: a one-instruction subroutine on its own code page, called
	// once per outer-loop iteration and never stored to by generated
	// code. Fault-injection tests overwrite it out-of-band to model a
	// missed translation-cache invalidation — because no guest store
	// ever touches its page, a stale translation of it survives until
	// something else flushes the cache.
	ProbeSlot uint64
}

// Register roles in generated programs.
const (
	genWorkLo = 1 // r1..r8 are work registers
	genWorkHi = 8
	rData     = 20 // data-segment base
	rOuter    = 21 // outer loop counter
	rAddr     = 22 // address scratch
	rVal      = 23 // value scratch
	rInner    = 24 // inner loop counter
)

type progGen struct {
	rng    *mix.RNG
	b      *asm.Builder
	slots  []uint64
	labels int
}

func (g *progGen) newLabel(kind string) string {
	g.labels++
	return fmt.Sprintf("%s_%d", kind, g.labels)
}

func (g *progGen) work() uint8 {
	return uint8(genWorkLo + g.rng.Intn(genWorkHi-genWorkLo+1))
}

// Generate builds a deterministic random guest program for seed. The
// program halts after a bounded number of instructions and exercises
// every VM subsystem the differential checks compare: ALU and FP
// arithmetic, data-dependent branches, inner loops, subroutine calls
// (direct and indirect), loads/stores across a multi-page working set,
// self-modifying code through the patch area, and the console, block-
// device, phase-mark, and time-query syscalls.
func Generate(seed uint64) *Program {
	g := &progGen{
		rng: mix.NewRNG(seed ^ 0xd1f5c4ec_0ffe_11ed),
		b:   asm.NewBuilder(genCodeBase),
	}
	b := g.b

	// Patch area: executed once per outer iteration, stored to by SMC
	// actions. Slots start as harmless work-register increments.
	b.Label("patch")
	nSlots := 3 + g.rng.Intn(4)
	for i := 0; i < nSlots; i++ {
		g.slots = append(g.slots, b.PC())
		b.I(isa.OpAddi, g.work(), g.work(), int32(1+g.rng.Intn(4)))
	}
	b.Jalr(0, isa.RegLR, 0)

	// Subroutines: short ALU/FP bodies with a jalr return.
	nSubs := 2 + g.rng.Intn(3)
	for s := 0; s < nSubs; s++ {
		b.Label(fmt.Sprintf("sub_%d", s))
		for i, n := 0, 2+g.rng.Intn(5); i < n; i++ {
			g.emitALU()
		}
		b.Jalr(0, isa.RegLR, 0)
	}

	// Entry: seed the work registers and the loop.
	b.Label("entry")
	b.I(isa.OpMovi, rData, 0, genDataBase)
	for r := uint8(genWorkLo); r <= genWorkHi; r++ {
		b.Movi(r, int64(g.rng.Next()))
	}
	iters := 8 + g.rng.Intn(17)
	b.I(isa.OpMovi, rOuter, 0, int32(iters))

	b.Label("loop")
	b.Jal(isa.RegLR, "patch") // guaranteed SMC-slot execution each iteration
	b.I(isa.OpMovi, rAddr, 0, genProbeBase)
	b.Jalr(isa.RegLR, rAddr, 0) // guaranteed probe execution each iteration
	for i, n := 0, 20+g.rng.Intn(41); i < n; i++ {
		g.emitAction(nSubs)
	}
	b.I(isa.OpAddi, rOuter, rOuter, -1)
	b.Br(isa.OpBne, rOuter, isa.RegZero, "loop")
	b.I(isa.OpMovi, 10, 0, int32(g.rng.Intn(128)))
	b.Sys(isa.SysExit)

	if b.PC() > genProbeBase {
		panic(fmt.Sprintf("check: generated program overruns the probe page (pc=%#x)", b.PC()))
	}

	// Probe routine on its own page (see Program.ProbeSlot).
	pb := asm.NewBuilder(genProbeBase)
	probe := pb.PC()
	pb.I(isa.OpAddi, 9, 9, 1)
	pb.Jalr(0, isa.RegLR, 0)

	img := &asm.Image{Entry: b.Addr("entry")}
	img.AddSegment(genCodeBase, b.Words())
	img.AddSegment(genProbeBase, pb.Words())
	return &Program{Seed: seed, Image: img, PatchSlots: g.slots, ProbeSlot: probe}
}

// emitAction appends one random body action.
func (g *progGen) emitAction(nSubs int) {
	switch g.rng.Pick([]int{
		24, // alu
		8,  // fp
		14, // load
		10, // store
		10, // forward branch
		7,  // inner loop
		6,  // direct call
		3,  // indirect call
		6,  // self-modifying store into a patch slot
		3,  // console write
		2,  // block read
		2,  // block write
		2,  // phase mark
		3,  // time query
	}) {
	case 0:
		g.emitALU()
	case 1:
		g.emitFP()
	case 2:
		g.emitLoad()
	case 3:
		g.emitStore()
	case 4:
		g.emitBranch()
	case 5:
		g.emitInnerLoop()
	case 6:
		g.b.Jal(isa.RegLR, fmt.Sprintf("sub_%d", g.rng.Intn(nSubs)))
	case 7:
		sub := fmt.Sprintf("sub_%d", g.rng.Intn(nSubs))
		g.b.I(isa.OpMovi, rAddr, 0, int32(g.b.Addr(sub)))
		g.b.Jalr(isa.RegLR, rAddr, 0)
	case 8:
		g.emitSMC()
	case 9:
		// Console write straight out of the working set (content is
		// whatever the guest computed there — deterministic).
		off := int32(g.rng.Intn(genDataSpan/8)) * 8
		g.b.I(isa.OpMovi, 10, 0, genDataBase+off)
		g.b.I(isa.OpMovi, 11, 0, int32(8+8*g.rng.Intn(16)))
		g.b.Sys(isa.SysConsoleOut)
	case 10:
		g.b.I(isa.OpMovi, 10, 0, int32(g.rng.Intn(32))) // sector
		g.b.I(isa.OpMovi, 11, 0, genIOBuf)
		g.b.I(isa.OpMovi, 12, 0, int32(1+g.rng.Intn(2)))
		g.b.Sys(isa.SysBlockRead)
	case 11:
		g.b.I(isa.OpMovi, 10, 0, int32(g.rng.Intn(32)))
		g.b.I(isa.OpMovi, 11, 0, genDataBase+int32(g.rng.Intn(genDataSpan/8))*8)
		g.b.I(isa.OpMovi, 12, 0, 1)
		g.b.Sys(isa.SysBlockWrite)
	case 12:
		g.b.I(isa.OpMovi, 10, 0, int32(g.rng.Next()&0xffff))
		g.b.Sys(isa.SysPhaseMark)
	case 13:
		g.b.Sys(isa.SysTimeQuery) // r10 = retired instructions
	}
}

var genALUOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
	isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu,
}

var genALUImmOps = []isa.Op{
	isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
	isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpMovi, isa.OpMovhi,
}

func (g *progGen) emitALU() {
	if g.rng.Intn(2) == 0 {
		op := genALUOps[g.rng.Intn(len(genALUOps))]
		g.b.R(op, g.work(), g.work(), g.work())
		return
	}
	op := genALUImmOps[g.rng.Intn(len(genALUImmOps))]
	imm := int32(g.rng.Next() & 0xffff)
	if op == isa.OpSlli || op == isa.OpSrli || op == isa.OpSrai {
		imm &= 63
	}
	g.b.I(op, g.work(), g.work(), imm)
}

var genFPOps = []isa.Op{isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv}

func (g *progGen) emitFP() {
	switch g.rng.Intn(6) {
	case 0:
		g.b.I(isa.OpFcvtIF, g.work(), g.work(), 0)
	case 1:
		// Convert through int space via a conversion chain that stays
		// deterministic on one host (NaN/Inf conversions are
		// implementation-specific across architectures, so regenerate
		// the operand first).
		w := g.work()
		g.b.I(isa.OpFcvtIF, w, g.work(), 0)
		g.b.I(isa.OpFcvtFI, g.work(), w, 0)
	default:
		op := genFPOps[g.rng.Intn(len(genFPOps))]
		g.b.R(op, g.work(), g.work(), g.work())
	}
}

// emitWSAddr leaves a working-set address in rAddr.
func (g *progGen) emitWSAddr() {
	g.b.I(isa.OpAndi, rAddr, g.work(), genDataSpan-8)
	g.b.R(isa.OpAdd, rAddr, rAddr, rData)
}

func (g *progGen) emitLoad() {
	g.emitWSAddr()
	g.b.Ld(g.work(), rAddr, int32(g.rng.Intn(64))*8)
}

func (g *progGen) emitStore() {
	g.emitWSAddr()
	g.b.St(g.work(), rAddr, int32(g.rng.Intn(64))*8)
}

var genBranchOps = []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}

func (g *progGen) emitBranch() {
	lbl := g.newLabel("skip")
	op := genBranchOps[g.rng.Intn(len(genBranchOps))]
	g.b.Br(op, g.work(), g.work(), lbl)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.emitALU()
	}
	g.b.Label(lbl)
}

func (g *progGen) emitInnerLoop() {
	lbl := g.newLabel("inner")
	g.b.I(isa.OpMovi, rInner, 0, int32(2+g.rng.Intn(8)))
	g.b.Label(lbl)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		switch g.rng.Intn(3) {
		case 0:
			g.emitLoad()
		case 1:
			g.emitStore()
		default:
			g.emitALU()
		}
	}
	g.b.I(isa.OpAddi, rInner, rInner, -1)
	g.b.Br(isa.OpBne, rInner, isa.RegZero, lbl)
}

// genSMCInsts is the set of replacement instructions SMC actions write
// into patch slots: register-local, non-control, always well-formed.
func (g *progGen) smcReplacement() isa.Inst {
	switch g.rng.Intn(4) {
	case 0:
		return isa.Inst{Op: isa.OpNop}
	case 1:
		w := g.work()
		return isa.Inst{Op: isa.OpAddi, Rd: w, Rs1: w, Imm: int32(1 + g.rng.Intn(16))}
	case 2:
		w := g.work()
		return isa.Inst{Op: isa.OpXori, Rd: w, Rs1: w, Imm: int32(g.rng.Next() & 0xff)}
	default:
		return isa.Inst{Op: isa.OpMovi, Rd: g.work(), Imm: int32(g.rng.Next() & 0xffff)}
	}
}

func (g *progGen) emitSMC() {
	slot := g.slots[g.rng.Intn(len(g.slots))]
	g.b.I(isa.OpMovi, rAddr, 0, int32(slot))
	g.b.Movi(rVal, int64(isa.Encode(g.smcReplacement())))
	g.b.St(rVal, rAddr, 0)
}
