// Package vm implements the functional full-system simulator — the
// reproduction's stand-in for AMD's SimNow.
//
// Like a real dynamic-binary-translation VM it executes guest code
// through a translation cache of decoded basic blocks with block
// chaining, maintains a software TLB for guest virtual memory, services
// guest exceptions (page faults, system calls) and device I/O, and keeps
// the internal statistics the paper's Dynamic Sampling monitors: code
// cache invalidations (CPU), exceptions (EXC), and I/O operations (I/O).
//
// The machine runs in two modes, selected per Run call:
//
//   - fast mode (nil Sink): no per-instruction observation; this is the
//     near-native-speed mode a VM normally runs in.
//   - event mode (non-nil Sink): every retired instruction is delivered
//     to the sink (PC, class, memory address, branch outcome). This is
//     the 10–20× slower mode required to feed a timing simulator, and
//     the cost the paper's sampling schedule is designed to avoid.
package vm

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Config parameterises the machine.
type Config struct {
	// MemSpan is the guest address-space size in bytes (default 1 GB).
	MemSpan uint64
	// TCMaxBlocks is the translation-cache capacity in basic blocks;
	// exceeding it triggers a Dynamo-style full flush (default 32768).
	TCMaxBlocks int
	// TLBEntries is the software-TLB size; must be a power of two
	// (default 1024).
	TLBEntries int
	// MaxBlockLen caps decoded basic-block length (default 64).
	MaxBlockLen int
	// EventBatch is the event-mode delivery batch capacity in events
	// (default 256). Purely host-side: the batch size never influences
	// guest-visible behaviour, statistics, or results — only how many
	// events each Sink.OnEvents call carries — so it is excluded
	// from checkpoint workload hashes.
	EventBatch int
}

func (c *Config) setDefaults() {
	if c.MemSpan == 0 {
		c.MemSpan = 1 << 30
	}
	if c.TCMaxBlocks == 0 {
		c.TCMaxBlocks = 32768
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 1024
	}
	if c.TLBEntries&(c.TLBEntries-1) != 0 {
		panic("vm: TLBEntries must be a power of two")
	}
	if c.MaxBlockLen == 0 {
		c.MaxBlockLen = 64
	}
	if c.EventBatch <= 0 {
		c.EventBatch = 256
	}
}

// Normalized returns the configuration with defaults applied. Every
// field of the normalized form except EventBatch (a host-side delivery
// granularity with no guest-visible effect) influences the machine's
// execution trajectory; checkpoint keys hash exactly those
// trajectory-relevant values: two machines with equal normalized
// configurations (and equal guest images) execute identical
// instruction streams.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// dinst is one decoded instruction as stored in a translation-cache
// block: the architectural fields of isa.Inst plus translate-time
// precomputations the interpreter hot loop would otherwise re-derive
// on every retirement — the dispatch kind (xc), the instruction class,
// the absolute PC-relative control-transfer target, and whether the op
// terminates the block. Each dinst is a pure function of its
// instruction word and address. The op..rs2 fields are laid out
// contiguously in exactly the order of the corresponding Event fields,
// so the event-mode store of the five static bytes compiles to wide
// moves instead of five byte copies.
type dinst struct {
	target    uint64 // absolute pc+imm for PC-relative branches/jumps
	imm       int32
	op        isa.Op
	cls       isa.Class
	rd        uint8
	rs1       uint8
	rs2       uint8
	xc        uint8 // threaded-dispatch kind, see the x* constants
	endsBlock bool
}

// Threaded-dispatch kinds: a dense decode-time re-encoding of the
// opcode space that the hot loop switches on instead of raw opcodes.
// Beyond being dense (one jump-table branch), the kinds fold in
// decisions that would otherwise be re-derived on every retirement:
//
//   - ops whose only effect is writing rd decode to xNop when rd is the
//     hardwired zero register, so no retirement re-checks rd;
//     Div keeps a discarding variant because its divide can still trap,
//     and Ld keeps one because the load's TLB/fault/statistic side
//     effects must happen even when the value is dropped;
//   - Jal/Jalr with rd == r0 decode to their no-link forms;
//   - each branch kind folds in the Branches/TakenBr accounting and the
//     taken-target redirect, so retirement never consults isa.Class.
//
// Event generation still reads the architectural op/cls/rd/rs1/rs2
// from the dinst, so the event stream is byte-identical.
// Kinds are ordered so that every block-terminating op sorts at or
// after xBeq: the hot loop's end-of-block test compares the kind (
// already in a register for the dispatch switch) against xBeq instead
// of loading the endsBlock byte.
const (
	xNop uint8 = iota
	xAdd
	xSub
	xMul
	xDiv
	xDivZ // rd == r0: divide (which may still fault) with result discarded
	xAnd
	xOr
	xXor
	xSll
	xSrl
	xSra
	xSlt
	xSltu
	xAddi
	xAndi
	xOri
	xXori
	xSlli
	xSrli
	xSrai
	xSlti
	xMovi
	xMovhi
	xLd
	xLdZ // rd == r0: load side effects (TLB, faults, MemReads) without the write
	xSt
	xFadd
	xFsub
	xFmul
	xFdiv
	xFcvtIF
	xFcvtFI
	xBeq // first block-terminating kind — see the xc >= xBeq test
	xBne
	xBlt
	xBge
	xJmp
	xJal
	xJalr
	xJalrZ // rd == r0: computed jump without the link write
	xHalt
	xSys
	xBad // undefined opcode: executing it panics (the dispatch default)
)

// xkinds is the threaded-dispatch kind of every opcode: kind for a real
// destination register, kindRdZero for rd == r0 (the demotions above).
// An opcode without a destination has the same kind in both columns.
var xkinds = [isa.NumOps]struct{ kind, kindRdZero uint8 }{
	isa.OpNop:    {xNop, xNop},
	isa.OpHalt:   {xHalt, xHalt},
	isa.OpAdd:    {xAdd, xNop},
	isa.OpSub:    {xSub, xNop},
	isa.OpMul:    {xMul, xNop},
	isa.OpDiv:    {xDiv, xDivZ},
	isa.OpAnd:    {xAnd, xNop},
	isa.OpOr:     {xOr, xNop},
	isa.OpXor:    {xXor, xNop},
	isa.OpSll:    {xSll, xNop},
	isa.OpSrl:    {xSrl, xNop},
	isa.OpSra:    {xSra, xNop},
	isa.OpSlt:    {xSlt, xNop},
	isa.OpSltu:   {xSltu, xNop},
	isa.OpAddi:   {xAddi, xNop},
	isa.OpAndi:   {xAndi, xNop},
	isa.OpOri:    {xOri, xNop},
	isa.OpXori:   {xXori, xNop},
	isa.OpSlli:   {xSlli, xNop},
	isa.OpSrli:   {xSrli, xNop},
	isa.OpSrai:   {xSrai, xNop},
	isa.OpSlti:   {xSlti, xNop},
	isa.OpMovi:   {xMovi, xNop},
	isa.OpMovhi:  {xMovhi, xNop},
	isa.OpLd:     {xLd, xLdZ},
	isa.OpSt:     {xSt, xSt},
	isa.OpBeq:    {xBeq, xBeq},
	isa.OpBne:    {xBne, xBne},
	isa.OpBlt:    {xBlt, xBlt},
	isa.OpBge:    {xBge, xBge},
	isa.OpJmp:    {xJmp, xJmp},
	isa.OpJal:    {xJal, xJmp},
	isa.OpJalr:   {xJalr, xJalrZ},
	isa.OpFadd:   {xFadd, xNop},
	isa.OpFsub:   {xFsub, xNop},
	isa.OpFmul:   {xFmul, xNop},
	isa.OpFdiv:   {xFdiv, xNop},
	isa.OpFcvtIF: {xFcvtIF, xNop},
	isa.OpFcvtFI: {xFcvtFI, xNop},
	isa.OpSys:    {xSys, xSys},
}

// xclassOf looks an opcode and its destination register up in xkinds;
// an undefined opcode is xBad. It runs at translate time only.
func xclassOf(op isa.Op, rd uint8) uint8 {
	switch {
	case int(op) >= len(xkinds):
		return xBad
	case rd == isa.RegZero:
		return xkinds[op].kindRdZero
	}
	return xkinds[op].kind
}

// block is one translation-cache entry: a decoded basic block.
type block struct {
	pc    uint64
	insts []dinst
	dead  bool
	// 1-entry chain: the dominant successor, looked up without touching
	// the translation-cache map (block chaining / linking).
	chainPC  uint64
	chainBlk *block
}

// PhaseMark is a guest-reported phase annotation (SysPhaseMark), used by
// the experiment harness as ground truth when analysing phase detection.
type PhaseMark struct {
	Instr uint64 // instruction count at the mark
	Value uint64 // guest-supplied phase identifier
}

// Machine is one guest system: CPU state, memory, devices, translation
// cache, software TLB, and statistics.
type Machine struct {
	cfg Config

	regs   [isa.NumRegs]uint64
	pc     uint64
	halted bool

	mem     *mem.Memory
	console *device.Console
	disk    *device.Block

	// Translation cache.
	tc        map[uint64]*block
	tcCount   int
	pageBlk   map[uint64][]*block // vpn -> blocks with code on that page
	codePages []uint64            // bit vpn: page holds translated code

	// Software TLB: direct-mapped, stores vpn+1 (0 = invalid); vpn's
	// slot is vpn & tlbMask.
	tlb     []uint64
	tlbMask uint64

	// resume is the block the last Run stopped inside, nil when it
	// stopped between blocks: the next Run continues its window at pc.
	resume *block

	// shared is what the next Snapshot may reuse and the next Restore
	// may skip (see sharedParts). Host-side only.
	shared sharedParts

	// batch is the event-mode delivery buffer, allocated once (capacity
	// cfg.EventBatch) on the first event-mode Run and reused across Run
	// calls so steady-state event generation allocates nothing.
	batch []Event

	// batchFlushes counts event-batch deliveries (OnEvents calls).
	// Purely host-side observability: never serialized, never
	// restored, and excluded from Stats and state comparisons.
	batchFlushes uint64

	// lookups counts Machine.lookup calls, host-side like batchFlushes:
	// tests read it to see whether the chain memo keeps a loop off it.
	lookups uint64

	stats    Stats
	phaseLog []PhaseMark
	exitCode uint64
	secBuf   [device.SectorWords]uint64
}

// maxPhaseLog bounds the retained phase-mark log.
const maxPhaseLog = 1 << 20

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg.setDefaults()
	m := &Machine{
		cfg:     cfg,
		mem:     mem.New(cfg.MemSpan),
		console: &device.Console{},
		disk:    device.NewBlock(0),
		tc:      make(map[uint64]*block),
		pageBlk: make(map[uint64][]*block),
		shared:  sharedParts{codeDirty: make(map[uint64]bool)},
	}
	m.codePages = make([]uint64, (m.mem.Span()>>mem.PageShift+63)/64)
	m.resizeTLB(cfg.TLBEntries)
	return m
}

// resizeTLB gives the machine an empty TLB of n entries (a power of
// two), the mask that goes with it, and the line table it agrees with.
func (m *Machine) resizeTLB(n int) {
	m.tlb = make([]uint64, n)
	m.tlbMask = uint64(n - 1)
	m.shared.tlb = linesOf(m.tlb)
	m.shared.tlbDirty = make([]bool, len(m.shared.tlb))
}

// Load populates guest memory from an image and sets the entry point.
// Loading does not perturb guest statistics: it discards fault flags.
func (m *Machine) Load(img *asm.Image) {
	for _, seg := range img.Segments {
		for i, w := range seg.Words {
			m.mem.Write64(seg.Base+uint64(i)*8, w)
		}
	}
	m.pc = img.Entry
	m.halted = false
	m.resume = nil
}

// Stats returns a copy of the machine's cumulative internal statistics.
func (m *Machine) Stats() Stats { return m.stats }

// BatchFlushes returns the cumulative number of event-batch deliveries
// (Sink.OnEvents calls) this machine has made — a host-side
// observability counter, not part of guest-visible Stats.
func (m *Machine) BatchFlushes() uint64 { return m.batchFlushes }

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// Reg returns the value of register r.
func (m *Machine) Reg(r int) uint64 { return m.regs[r] }

// SetReg sets register r (r0 writes are discarded). Tests and loaders
// use it; guest code cannot observe the difference from a MOVI.
func (m *Machine) SetReg(r int, v uint64) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
}

// Halted reports whether the guest has executed HALT or SysExit.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the guest's SysExit argument (0 for HALT).
func (m *Machine) ExitCode() uint64 { return m.exitCode }

// Console returns the console device.
func (m *Machine) Console() *device.Console { return m.console }

// Disk returns the block device.
func (m *Machine) Disk() *device.Block { return m.disk }

// PhaseLog returns guest-reported phase marks.
func (m *Machine) PhaseLog() []PhaseMark { return m.phaseLog }

// Mem exposes the guest memory (read-mostly; used by tests and the
// experiment harness).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// tlbLookup performs a software-TLB access for vpn: probe slot
// vpn & tlbMask and, when it does not hold vpn, fill it and count a
// refill (an EXC-visible event). Outside Restore it is the TLB's only
// writer.
func (m *Machine) tlbLookup(vpn uint64) {
	idx := vpn & m.tlbMask
	if m.tlb[idx] != vpn+1 {
		m.tlb[idx] = vpn + 1
		m.shared.tlbDirty[idx/tlbLineLen] = true
		m.stats.TLBRefills++
		m.stats.Exceptions++
	}
}

// decodeInsts decodes one basic block starting at pc, reading guest
// words through peek. It applies exactly the translation rules (length
// cap, page-end split, block-ending opcodes) but returns an error
// instead of panicking, so snapshot restores can validate a block set
// before committing any machine state. The returned instructions carry
// the translate-time precomputations (class, absolute PC-relative
// target, exit flags) the interpreter relies on.
func decodeInsts(peek func(uint64) uint64, pc uint64, maxLen int) ([]dinst, error) {
	var insts []dinst
	addr := pc
	pageEnd := (pc &^ (mem.PageBytes - 1)) + mem.PageBytes
	for len(insts) < maxLen && addr < pageEnd {
		w := peek(addr)
		in := isa.Decode(w)
		if !in.WellFormed() {
			return nil, fmt.Errorf("vm: illegal instruction %#x (%v) at pc=%#x", w, in, addr)
		}
		cls := in.Op.Class()
		d := dinst{
			imm: in.Imm,
			op:  in.Op, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2,
			cls:       cls,
			xc:        xclassOf(in.Op, in.Rd),
			endsBlock: in.Op.EndsBlock(),
		}
		if cls == isa.ClassBranch || in.Op == isa.OpJmp || in.Op == isa.OpJal {
			d.target = addr + uint64(int64(in.Imm))
		}
		insts = append(insts, d)
		addr += isa.InstBytes
		if d.endsBlock {
			break
		}
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("vm: empty translation at pc=%#x", pc)
	}
	return insts, nil
}

// installBlock registers a decoded block in the translation cache and
// on every page it covers (at most two), without touching statistics.
func (m *Machine) installBlock(b *block) {
	m.tc[b.pc] = b
	m.tcCount++
	first := b.pc >> mem.PageShift
	last := (b.pc + uint64(len(b.insts))*isa.InstBytes - 1) >> mem.PageShift
	for vpn := first; vpn <= last; vpn++ {
		m.pageBlk[vpn] = append(m.pageBlk[vpn], b)
		m.codePages[vpn/64] |= 1 << (vpn % 64)
	}
}

// translate decodes a basic block starting at pc and installs it in the
// translation cache.
func (m *Machine) translate(pc uint64) *block {
	if m.tcCount >= m.cfg.TCMaxBlocks {
		m.flushTC()
	}
	m.tlbLookup(pc >> mem.PageShift) // instruction-side translation
	insts, err := decodeInsts(m.mem.Peek, pc, m.cfg.MaxBlockLen)
	if err != nil {
		panic(err.Error())
	}
	b := &block{pc: pc, insts: insts}
	m.installBlock(b)
	m.stats.TCTranslations++
	m.shared.codeDirty[pc>>mem.PageShift] = true
	return b
}

// lookup returns the live translation for pc, translating on miss.
func (m *Machine) lookup(pc uint64) *block {
	m.lookups++
	if b, ok := m.tc[pc]; ok && !b.dead {
		return b
	}
	return m.translate(pc)
}

// invalidatePage drops every translation overlapping the page (the
// self-modifying-code path). Each dropped block increments the CPU
// metric, as in the paper. Blocks spanning into a neighbouring page are
// also removed from that page's list: without the compaction a dead
// pointer would stay in the neighbour's slice forever, so SMC-heavy
// guests would grow pageBlk without bound.
func (m *Machine) invalidatePage(vpn uint64) {
	blocks := m.pageBlk[vpn]
	for _, b := range blocks {
		if !b.dead {
			b.dead = true
			delete(m.tc, b.pc)
			m.tcCount--
			m.stats.TCInvalidations++
			first := b.pc >> mem.PageShift
			m.shared.codeDirty[first] = true
			last := (b.pc + uint64(len(b.insts))*isa.InstBytes - 1) >> mem.PageShift
			for p := first; p <= last; p++ {
				if p != vpn {
					m.compactPageBlk(p)
				}
			}
		}
	}
	delete(m.pageBlk, vpn)
	m.codePages[vpn/64] &^= 1 << (vpn % 64)
}

// compactPageBlk removes dead blocks from page p's list, dropping the
// list (and the code-page flag, making future stores to p skip the
// invalidation scan) when no live block remains. Purely host-side
// bookkeeping: a page with only dead blocks contributes no
// invalidations either way.
func (m *Machine) compactPageBlk(p uint64) {
	blocks, ok := m.pageBlk[p]
	if !ok {
		return
	}
	live := blocks[:0]
	for _, b := range blocks {
		if !b.dead {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		delete(m.pageBlk, p)
		m.codePages[p/64] &^= 1 << (p % 64)
		return
	}
	for i := len(live); i < len(blocks); i++ {
		blocks[i] = nil // release dead pointers
	}
	m.pageBlk[p] = live
}

// flushTC performs a Dynamo-style full translation-cache flush.
func (m *Machine) flushTC() {
	m.stats.TCFlushes++
	m.stats.TCInvalidations += uint64(m.tcCount)
	for _, b := range m.tc {
		b.dead = true
	}
	m.tc = make(map[uint64]*block)
	for vpn := range m.pageBlk {
		m.codePages[vpn/64] &^= 1 << (vpn % 64)
		m.shared.codeDirty[vpn] = true
	}
	m.pageBlk = make(map[uint64][]*block)
	m.tcCount = 0
}

// TCBlocks returns the number of live translation-cache blocks.
func (m *Machine) TCBlocks() int { return m.tcCount }

// Run executes up to n guest instructions, stopping early on HALT or
// SysExit. If sink is non-nil the machine runs in event-generating mode
// and delivers one Event per retired instruction, in batches, through
// sink.OnEvents when a batch is full and when Run returns, nowhere
// else. Run returns the number of instructions actually executed; every
// buffered event has been delivered by the time it returns.
//
// The machine's state, statistics included, is identical in both
// modes, independent of how a long run is partitioned into Run calls,
// and independent of the event batch capacity: a Run whose budget ends
// inside a block keeps that block, and the next Run continues it.
func (m *Machine) Run(n uint64, sink Sink) uint64 {
	if m.halted {
		return 0
	}
	if sink != nil && cap(m.batch) == 0 {
		m.batch = make([]Event, 0, m.cfg.EventBatch)
	}
	return m.run(n, sink)
}

// run is the interpreter hot loop shared by both modes: bs is nil in
// fast mode and a batch-delivering sink in event mode.
//
// The loop holds the guest machine state in function locals — the full
// register file (regs) and deltas for the five per-retirement
// statistics — and spills them back to the Machine only where something
// actually reads them: before syscalls (the syscall layer reads
// stats.Instructions and reads and writes registers) and on the one
// return path, after the dispatch loop. Translation-cache lookups and
// event delivery need no spill: translate reads neither, and sinks
// receive events, never machine pointers. The TLB needs no spill
// either: the load/store probes and translate's instruction-side lookup
// share the one array m.tlb.
// Everywhere else m.regs/m.stats/m.pc are stale — nothing observes
// them there, the machine being single-threaded per goroutine. The one
// visible consequence is that a panic out of the hot loop (illegal
// instruction, guest memory out of range) leaves the Machine's
// registers and statistics behind the point of the fault and drops the
// events still buffered; panics are fatal diagnostics, not a recovery
// surface, so no caller inspects machine state across one.
//
// A block's successor is resolved through the block's 1-entry chain
// memo (chainPC, chainBlk): when the successor pc is chainPC and that
// block is live, the loop runs it next without touching the
// translation-cache map or the TLB. At most one live block exists per
// pc, so a chain hit runs the block a lookup would return, and looking
// up a live block moves no statistic. On a chain miss the loop looks
// the pc up (which may translate) and makes the result the new memo.
//
// The per-instruction budget check is hoisted: each block iteration
// executes a window insts[:min(len, n-executed)], so the inner loop
// carries no budget compare. Falling off a budget-capped window leaves
// m.pc at the next unexecuted address and the block in m.resume, where
// the next Run continues with no lookup, translation or
// instruction-TLB probe, just as this one would have with more budget.
func (m *Machine) run(n uint64, bs Sink) uint64 {
	var (
		executed uint64 // instructions retired this call
		instBase uint64 // executed at the last Instructions spill
		sReads   uint64 // MemReads delta since last spill
		sWrites  uint64 // MemWrites delta
		sBr      uint64 // Branches delta
		sTaken   uint64 // TakenBr delta
		bi       int
		batch    []Event
		blk      *block  // current block; live whenever blockLoop runs it
		insts    []dinst // blk's instructions from the window's start
		pc       uint64  // address of the instruction being retired
	)
	regs := m.regs
	// The load/store probes read the TLB through these locals: only
	// Restore replaces m.tlb, and never inside run.
	tlb, tlbMask := m.tlb, m.tlbMask
	// Direct view of the guest page directory for the inlined load/store
	// fast path: page vpn is dir[vpn>>LeafShift].Pages[vpn&(LeafPages-1)].
	// The directory is the Memory's own (fixed length for its lifetime)
	// and an empty region's slot holds a shared, never-written leaf of
	// nil pages, so the guard costs one more dependent load than a flat
	// table and no more branches; materialisation and copy-on-write
	// unsealing through the slow path are immediately visible here.
	dir := m.mem.Raw()
	ndir := uint64(len(dir))
	if bs != nil {
		batch = m.batch[:cap(m.batch)]
	}

dispatch:
	for executed != n {
		if blk = m.resume; blk != nil {
			insts = blk.insts[(m.pc-blk.pc)/isa.InstBytes:]
			m.resume = nil
		} else {
			blk = m.lookup(m.pc)
			insts = blk.insts
		}
		pc = m.pc

	blockLoop:
		for {
			blkDead := false
			win := insts
			if room := n - executed; room < uint64(len(win)) {
				win = win[:room]
			}
			var nextPC uint64
			exited := false
			for ii := range win {
				in := &win[ii]
				nextPC = pc + isa.InstBytes
				var memAddr, target uint64
				taken := false

				switch in.xc {
				case xNop:
				case xHalt:
					m.halted = true
				case xAdd:
					regs[in.rd&31] = regs[in.rs1&31] + regs[in.rs2&31]
				case xSub:
					regs[in.rd&31] = regs[in.rs1&31] - regs[in.rs2&31]
				case xMul:
					regs[in.rd&31] = regs[in.rs1&31] * regs[in.rs2&31]
				case xDiv:
					if d := regs[in.rs2&31]; d != 0 {
						regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) / int64(d))
					} else {
						regs[in.rd&31] = 0
					}
				case xDivZ:
					if d := regs[in.rs2&31]; d != 0 {
						_ = uint64(int64(regs[in.rs1&31]) / int64(d))
					}
				case xAnd:
					regs[in.rd&31] = regs[in.rs1&31] & regs[in.rs2&31]
				case xOr:
					regs[in.rd&31] = regs[in.rs1&31] | regs[in.rs2&31]
				case xXor:
					regs[in.rd&31] = regs[in.rs1&31] ^ regs[in.rs2&31]
				case xSll:
					regs[in.rd&31] = regs[in.rs1&31] << (regs[in.rs2&31] & 63)
				case xSrl:
					regs[in.rd&31] = regs[in.rs1&31] >> (regs[in.rs2&31] & 63)
				case xSra:
					regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) >> (regs[in.rs2&31] & 63))
				case xSlt:
					if int64(regs[in.rs1&31]) < int64(regs[in.rs2&31]) {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xSltu:
					if regs[in.rs1&31] < regs[in.rs2&31] {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xAddi:
					regs[in.rd&31] = regs[in.rs1&31] + uint64(int64(in.imm))
				case xAndi:
					regs[in.rd&31] = regs[in.rs1&31] & uint64(int64(in.imm))
				case xOri:
					regs[in.rd&31] = regs[in.rs1&31] | uint64(int64(in.imm))
				case xXori:
					regs[in.rd&31] = regs[in.rs1&31] ^ uint64(int64(in.imm))
				case xSlli:
					regs[in.rd&31] = regs[in.rs1&31] << (uint32(in.imm) & 63)
				case xSrli:
					regs[in.rd&31] = regs[in.rs1&31] >> (uint32(in.imm) & 63)
				case xSrai:
					regs[in.rd&31] = uint64(int64(regs[in.rs1&31]) >> (uint32(in.imm) & 63))
				case xSlti:
					if int64(regs[in.rs1&31]) < int64(in.imm) {
						regs[in.rd&31] = 1
					} else {
						regs[in.rd&31] = 0
					}
				case xMovi:
					regs[in.rd&31] = uint64(int64(in.imm))
				case xMovhi:
					regs[in.rd&31] |= uint64(uint32(in.imm)) << 32

				case xLd:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if tlb[vpn&tlbMask] != vpn+1 {
						m.tlbLookup(vpn)
					}
					if d, i := vpn>>mem.LeafShift, vpn&(mem.LeafPages-1); d < ndir && dir[d].Pages[i] != nil {
						regs[in.rd&31] = dir[d].Pages[i][memAddr>>3&(mem.WordsPerPage-1)]
					} else {
						v, faulted := m.mem.Read64(memAddr)
						if faulted {
							m.stats.PageFaults++
							m.stats.Exceptions++
						}
						regs[in.rd&31] = v
					}
					sReads++
				case xLdZ:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if tlb[vpn&tlbMask] != vpn+1 {
						m.tlbLookup(vpn)
					}
					// Mapped pages need no work (the loaded value is
					// discarded); only the materialising/faulting path has
					// observable effects.
					if d := vpn >> mem.LeafShift; d >= ndir || dir[d].Pages[vpn&(mem.LeafPages-1)] == nil {
						if _, faulted := m.mem.Read64(memAddr); faulted {
							m.stats.PageFaults++
							m.stats.Exceptions++
						}
					}
					sReads++
				case xSt:
					memAddr = (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					vpn := memAddr >> mem.PageShift
					if tlb[vpn&tlbMask] != vpn+1 {
						m.tlbLookup(vpn)
					}
					if d, i := vpn>>mem.LeafShift, vpn&(mem.LeafPages-1); d < ndir && dir[d].Pages[i] != nil && !dir[d].Sealed[i] {
						dir[d].Pages[i][memAddr>>3&(mem.WordsPerPage-1)] = regs[in.rs2&31]
					} else if m.mem.Write64(memAddr, regs[in.rs2&31]) {
						m.stats.PageFaults++
						m.stats.Exceptions++
					}
					sWrites++
					if m.codePages[vpn/64]&(1<<(vpn%64)) != 0 {
						m.invalidatePage(vpn)
						blkDead = blk.dead
					}
				case xBeq:
					sBr++
					if regs[in.rs1&31] == regs[in.rs2&31] {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBne:
					sBr++
					if regs[in.rs1&31] != regs[in.rs2&31] {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBlt:
					sBr++
					if int64(regs[in.rs1&31]) < int64(regs[in.rs2&31]) {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xBge:
					sBr++
					if int64(regs[in.rs1&31]) >= int64(regs[in.rs2&31]) {
						taken = true
						sTaken++
						target = in.target
						nextPC = target
					}
				case xJmp:
					target = in.target
					nextPC = target
				case xJal:
					regs[in.rd&31] = nextPC
					target = in.target
					nextPC = target
				case xJalr:
					t := (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					regs[in.rd&31] = nextPC
					target = t
					nextPC = t
				case xJalrZ:
					t := (regs[in.rs1&31] + uint64(int64(in.imm))) &^ 7
					target = t
					nextPC = t
				case xFadd:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) + b2f(regs[in.rs2&31]))
				case xFsub:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) - b2f(regs[in.rs2&31]))
				case xFmul:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) * b2f(regs[in.rs2&31]))
				case xFdiv:
					regs[in.rd&31] = f2b(b2f(regs[in.rs1&31]) / b2f(regs[in.rs2&31]))
				case xFcvtIF:
					regs[in.rd&31] = f2b(float64(int64(regs[in.rs1&31])))
				case xFcvtFI:
					regs[in.rd&31] = uint64(int64(b2f(regs[in.rs1&31])))
				case xSys:
					// Spill before servicing: the syscall layer reads
					// stats.Instructions (SysPhaseMark, SysTimeQuery)
					// and reads and writes registers. Sinks read no
					// machine state, so buffered events stay buffered.
					m.regs = regs
					m.stats.Instructions += executed - instBase
					instBase = executed
					m.stats.MemReads += sReads
					m.stats.MemWrites += sWrites
					m.stats.Branches += sBr
					m.stats.TakenBr += sTaken
					sReads, sWrites, sBr, sTaken = 0, 0, 0, 0
					m.syscall(in.imm)
					regs = m.regs
				default:
					panic(fmt.Sprintf("vm: unimplemented opcode %v at pc=%#x", in.op, pc))
				}

				executed++

				if bs != nil {
					// Indexed store into the reused buffer: every field
					// is assigned, so the previous batch's contents
					// never leak.
					e := &batch[bi]
					e.PC, e.NextPC, e.MemAddr, e.Target = pc, nextPC, memAddr, target
					e.Op, e.Class, e.Rd, e.Rs1, e.Rs2 = in.op, in.cls, in.rd, in.rs1, in.rs2
					e.Taken = taken
					bi++
					if bi == len(batch) {
						// Sinks receive events, never machine pointers,
						// so delivery needs no spill.
						m.batchFlushes++
						bs.OnEvents(batch)
						bi = 0
					}
				}

				// Only control transfers change nextPC, and every one
				// of them ends the block, so the sequential
				// fall-through test reduces to the kind range (every
				// terminating kind sorts at or after xBeq; the kind is
				// already in a register for the dispatch switch) plus
				// the block dying under a store to its own page
				// (blkDead is refreshed only by the store case —
				// nothing else can kill the current block mid-flight).
				if in.xc >= xBeq || blkDead {
					if m.halted {
						m.pc = pc // the halting instruction
						break dispatch
					}
					if blkDead {
						// The block died under us mid-execution; the
						// remainder must be looked up (and retranslated).
						m.pc = nextPC
						continue dispatch
					}
					exited = true
					break
				}
				pc = nextPC
			}

			if !exited {
				// Fell off the window end: either the budget expired
				// (return with m.pc at the next unexecuted instruction
				// and the block kept, so that the next Run continues
				// it), or a length/page-capped block fell through.
				if executed == n {
					m.pc, m.resume = pc, blk
					break dispatch
				}
				nextPC = pc
			}

			// A live block ended (control transfer, or fall-through
			// with budget remaining). Resolve the successor through the
			// block's chain memo, else through a lookup.
			if blk.chainPC == nextPC {
				if nb := blk.chainBlk; nb != nil && !nb.dead {
					blk, insts, pc = nb, nb.insts, nb.pc
					continue blockLoop
				}
			}
			// Chain miss: look up and remember the successor. Registers,
			// stat deltas and buffered events stay local: translation
			// reads none of them. The lookup runs even when the budget
			// is exhausted (the dispatch loop then ends without
			// executing the block), because the translation statistics
			// it moves are part of the golden trajectories.
			m.pc = nextPC
			nb := m.lookup(nextPC)
			blk.chainPC = nextPC
			blk.chainBlk = nb
			blk, insts, pc = nb, nb.insts, nb.pc
		}
	}
	// The one return path: the budget is spent or the guest halted.
	if bi != 0 {
		m.batchFlushes++
		bs.OnEvents(batch[:bi])
	}
	m.regs = regs
	m.stats.Instructions += executed - instBase
	m.stats.MemReads += sReads
	m.stats.MemWrites += sWrites
	m.stats.Branches += sBr
	m.stats.TakenBr += sTaken
	return executed
}

// RunToCompletion executes until the guest halts, in chunks.
func (m *Machine) RunToCompletion(chunk uint64, sink Sink) uint64 {
	if chunk == 0 {
		chunk = 1 << 20
	}
	var total uint64
	for !m.halted {
		n := m.Run(chunk, sink)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}
