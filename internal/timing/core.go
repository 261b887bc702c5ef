package timing

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/vm"
)

// fuKind indexes the functional-unit pools.
type fuKind int

const (
	fuInt fuKind = iota
	fuMem
	fuFP
	numFU
)

// Core is the out-of-order core timing model. It consumes the VM's
// instruction event stream (it implements vm.Sink) and advances a cycle
// model; interval IPC is read through Markers.
type Core struct {
	cfg  Config
	pred *branch.Predictor

	l1i, l1d, l2      *cache.Cache
	itlb, dtlb, l2tlb *cache.TLB

	// Fetch state.
	fetchCursor   uint64
	fetchedInCyc  int
	lastFetchLine uint64

	// Retirement state.
	retireCycle  uint64
	retiredInCyc int

	// Register scoreboard: cycle at which each register's value is ready.
	regReady [isa.NumRegs]uint64

	// Occupancy rings: cycle at which the entry frees.
	rob     []uint64
	robIdx  int
	loadQ   []uint64
	loadIdx int
	storeQ  []uint64
	stIdx   int

	// Functional-unit pools: next-free cycle per unit.
	fu [numFU][]uint64

	// Counters.
	instrs      uint64
	loads       uint64
	stores      uint64
	mispredicts uint64
	flushes     uint64
	byClass     [isa.NumClasses]uint64
}

// NewCore builds a core with the given configuration (zero Config fields
// are not defaulted; use DefaultConfig). It panics, naming the field, on
// a width, ring or unit-pool size that is not positive.
func NewCore(cfg Config) *Core {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Width", cfg.Width}, {"Window", cfg.Window},
		{"LoadBuf", cfg.LoadBuf}, {"StoreBuf", cfg.StoreBuf},
		{"IntALU", cfg.IntALU}, {"MemPorts", cfg.MemPorts}, {"FPUs", cfg.FPUs},
	} {
		if f.v <= 0 {
			panic(fmt.Sprintf("timing: bad config: %s = %d, must be positive", f.name, f.v))
		}
	}
	l2 := cfg.SharedL2
	if l2 == nil {
		l2 = cache.New(cfg.L2)
	}
	c := &Core{
		cfg:    cfg,
		pred:   branch.New(branch.Default()),
		l1i:    cache.New(cfg.L1I),
		l1d:    cache.New(cfg.L1D),
		l2:     l2,
		itlb:   cache.NewTLB(cfg.ITLB),
		dtlb:   cache.NewTLB(cfg.DTLB),
		l2tlb:  cache.NewTLB(cfg.L2TLB),
		rob:    make([]uint64, cfg.Window),
		loadQ:  make([]uint64, cfg.LoadBuf),
		storeQ: make([]uint64, cfg.StoreBuf),
	}
	c.fu[fuInt] = make([]uint64, cfg.IntALU)
	c.fu[fuMem] = make([]uint64, cfg.MemPorts)
	c.fu[fuFP] = make([]uint64, cfg.FPUs)
	c.lastFetchLine = ^uint64(0)
	return c
}

// Predictor exposes the branch predictor (for statistics).
func (c *Core) Predictor() *branch.Predictor { return c.pred }

// CacheStats returns (L1I, L1D, L2) statistics.
func (c *Core) CacheStats() (l1i, l1d, l2 cache.Stats) {
	return c.l1i.Stats(), c.l1d.Stats(), c.l2.Stats()
}

// TLBStats returns (ITLB, DTLB, L2TLB) statistics.
func (c *Core) TLBStats() (itlb, dtlb, l2tlb cache.Stats) {
	return c.itlb.Stats(), c.dtlb.Stats(), c.l2tlb.Stats()
}

// Marker is a point in simulated time.
type Marker struct {
	Cycles uint64
	Instrs uint64
}

// Marker returns the current simulated position.
func (c *Core) Marker() Marker { return Marker{Cycles: c.retireCycle, Instrs: c.instrs} }

// IPC returns instructions per cycle between two markers (0 if no cycles
// elapsed).
func IPC(from, to Marker) float64 {
	dc := to.Cycles - from.Cycles
	di := to.Instrs - from.Instrs
	if dc == 0 {
		return 0
	}
	return float64(di) / float64(dc)
}

// Snapshot is the timing-visible state of a core at one instant: the
// simulated clock, every retirement counter, the statistics and
// replacement-state digests of each cache and TLB level, and the branch
// predictor's state digest. It is a
// comparable value, so two cores that consumed observationally
// identical event streams — against identical shared-L2 schedules —
// have equal Snapshots. The SMP equivalence harness compares parallel
// and sequential schedules through this surface; any divergence in
// cycle accounting, cache contents, or replacement order shows up as a
// field difference.
type Snapshot struct {
	Cycles      uint64
	Instrs      uint64
	Loads       uint64
	Stores      uint64
	Mispredicts uint64
	Flushes     uint64
	ByClass     [isa.NumClasses]uint64

	L1I, L1D, L2      cache.Stats
	ITLB, DTLB, L2TLB cache.Stats

	// Digests cover tag state and LRU order, not just counters. L2 is
	// the shared cache's digest when the core was built with one, so a
	// multi-core snapshot set pins the interleaved shared-L2 schedule.
	L1IDigest, L1DDigest, L2Digest      uint64
	ITLBDigest, DTLBDigest, L2TLBDigest uint64
	// PredDigest covers the predictor's counters, history, BTB, RAS and
	// statistics (branch.Predictor.Digest).
	PredDigest uint64
}

// Snapshot captures the core's timing-visible state.
func (c *Core) Snapshot() Snapshot {
	return Snapshot{
		Cycles:      c.retireCycle,
		Instrs:      c.instrs,
		Loads:       c.loads,
		Stores:      c.stores,
		Mispredicts: c.mispredicts,
		Flushes:     c.flushes,
		ByClass:     c.byClass,
		L1I:         c.l1i.Stats(),
		L1D:         c.l1d.Stats(),
		L2:          c.l2.Stats(),
		ITLB:        c.itlb.Stats(),
		DTLB:        c.dtlb.Stats(),
		L2TLB:       c.l2tlb.Stats(),
		L1IDigest:   c.l1i.Digest(),
		L1DDigest:   c.l1d.Digest(),
		L2Digest:    c.l2.Digest(),
		ITLBDigest:  c.itlb.Digest(),
		DTLBDigest:  c.dtlb.Digest(),
		L2TLBDigest: c.l2tlb.Digest(),
		PredDigest:  c.pred.Digest(),
	}
}

// Operand predicates of every opcode, packed so the hot loop makes one
// unchecked table load per instruction instead of three isa calls.
const (
	opReadsRs1 = 1 << iota
	opReadsRs2
	opHasDest
)

var opFlags = func() (t [256]uint8) {
	for i := range t {
		op := isa.Op(i)
		if op.ReadsRs1() {
			t[i] |= opReadsRs1
		}
		if op.ReadsRs2() {
			t[i] |= opReadsRs2
		}
		if op.HasDest() {
			t[i] |= opHasDest
		}
	}
	return t
}()

// dmemLatency computes a load's total latency through DTLB and the data
// cache hierarchy.
func (c *Core) dmemLatency(addr uint64) uint64 {
	lat := c.cfg.L1Lat
	if !c.dtlb.Access(addr) {
		if c.l2tlb.Access(addr) {
			lat += c.cfg.L2TLBLat
		} else {
			lat += c.cfg.L2TLBLat + c.cfg.WalkLat
		}
	}
	if !c.l1d.Access(addr) {
		if c.l2.Access(addr) {
			lat += c.cfg.L2HitLat
		} else {
			lat += c.cfg.L2HitLat + c.cfg.MemLat
		}
	}
	return uint64(lat)
}

// issue4 is issue on a four-unit pool. A unit pool is the next-free cycle
// of each functional unit; issuing takes the earliest-free unit,
// occupies it from the issue cycle for busy cycles, and returns the
// issue cycle. Which unit an instruction lands on is not timing-visible
// — only the multiset of free times is — so the Table 1 pool sizes (4
// and 2) are unrolled into compare/conditional-move chains with no
// tie-break to keep; issueN is the scan for any other size. The masks on
// the final index only tell the compiler it is in range.
func issue4(u *[4]uint64, ready, busy uint64) uint64 {
	best, free := 0, u[0]
	if u[1] < free {
		best, free = 1, u[1]
	}
	if u[2] < free {
		best, free = 2, u[2]
	}
	if u[3] < free {
		best, free = 3, u[3]
	}
	if free < ready {
		free = ready
	}
	u[best&3] = free + busy
	return free
}

func issue2(u *[2]uint64, ready, busy uint64) uint64 {
	best, free := 0, u[0]
	if u[1] < free {
		best, free = 1, u[1]
	}
	if free < ready {
		free = ready
	}
	u[best&1] = free + busy
	return free
}

func issueN(u []uint64, ready, busy uint64) uint64 {
	best := 0
	for i := 1; i < len(u); i++ {
		if u[i] < u[best] {
			best = i
		}
	}
	free := u[best]
	if free < ready {
		free = ready
	}
	u[best] = free + busy
	return free
}

// OnEvents processes a batch of retired instructions in full detail;
// it is the one body of the detail model. It implements vm.Sink, so a
// Core can be handed directly to vm.Machine.Run. The model is strictly
// per-instruction, so how a stream is cut into batches never changes a
// result.
//
// The core's scalar pipeline state lives in locals for the duration of
// the batch and is written back once at the end: Marker, Snapshot and
// every other accessor are valid between batches only (DESIGN.md §17).
func (c *Core) OnEvents(evs []vm.Event) {
	cfg := &c.cfg
	var (
		width      = cfg.Width
		frontDepth = uint64(cfg.FrontDepth)
		mispredict = uint64(cfg.MispredictPenalty)

		fetchCursor   = c.fetchCursor
		fetchedInCyc  = c.fetchedInCyc
		lastFetchLine = c.lastFetchLine
		retireCycle   = c.retireCycle
		retiredInCyc  = c.retiredInCyc
		robIdx        = c.robIdx
		loadIdx       = c.loadIdx
		stIdx         = c.stIdx

		rob      = c.rob
		loadQ    = c.loadQ
		storeQ   = c.storeQ
		regReady = &c.regReady
		intU     = c.fu[fuInt]
		memU     = c.fu[fuMem]
		fpU      = c.fu[fuFP]
	)

	for i := range evs {
		ev := &evs[i]

		// --- Fetch ---
		// Crossing into a new cache line charges instruction-fetch
		// latency through ITLB and the instruction cache hierarchy.
		if line := ev.PC >> 6; line != lastFetchLine {
			lastFetchLine = line
			extra := 0
			if !c.itlb.Access(ev.PC) {
				if c.l2tlb.Access(ev.PC) {
					extra += cfg.L2TLBLat
				} else {
					extra += cfg.L2TLBLat + cfg.WalkLat
				}
			}
			if !c.l1i.Access(ev.PC) {
				if c.l2.Access(ev.PC) {
					extra += cfg.L2HitLat
				} else {
					extra += cfg.L2HitLat + cfg.MemLat
				}
			}
			if extra > 0 {
				fetchCursor += uint64(extra)
				fetchedInCyc = 0
			}
		}
		// Window occupancy: this instruction reuses the ROB slot of the
		// instruction Window positions back; fetch stalls until it retired.
		if free := rob[robIdx]; free > fetchCursor {
			fetchCursor = free
			fetchedInCyc = 0
		}
		ready := fetchCursor + frontDepth // dispatch
		fetchedInCyc++
		if fetchedInCyc >= width {
			fetchCursor++
			fetchedInCyc = 0
		}

		// --- Ready (operand availability) ---
		flags := opFlags[ev.Op]
		if flags&opReadsRs1 != 0 {
			if r := regReady[ev.Rs1]; r > ready {
				ready = r
			}
		}
		if flags&opReadsRs2 != 0 {
			if r := regReady[ev.Rs2]; r > ready {
				ready = r
			}
		}

		// --- Execute ---
		// The class picks the unit pool, how long the unit stays busy,
		// and the latency from issue to completion.
		var (
			units = intU
			busy  = uint64(1)
			lat   = uint64(1)
			// queue is the load/store buffer entry the instruction holds
			// until it completes.
			queue *uint64
			// redirect: fetch restarts penalty cycles after completion.
			redirect = false
			penalty  = mispredict
		)
		switch ev.Class {
		case isa.ClassLoad:
			queue = &loadQ[loadIdx]
			if loadIdx++; loadIdx == len(loadQ) {
				loadIdx = 0
			}
			units, lat = memU, c.dmemLatency(ev.MemAddr)
			c.loads++
		case isa.ClassStore:
			// Stores complete once the address is known; the write drains
			// from the store buffer after retirement.
			queue = &storeQ[stIdx]
			if stIdx++; stIdx == len(storeQ) {
				stIdx = 0
			}
			units = memU
			c.dmemLatency(ev.MemAddr) // warm the hierarchy
			c.stores++
		case isa.ClassMul:
			lat = uint64(cfg.MulLat)
		case isa.ClassDiv: // unpipelined
			busy, lat = uint64(cfg.DivLat), uint64(cfg.DivLat)
		case isa.ClassFP:
			units, lat = fpU, uint64(cfg.FPLat)
		case isa.ClassFDiv: // unpipelined
			units, busy, lat = fpU, uint64(cfg.FDivLat), uint64(cfg.FDivLat)
		case isa.ClassBranch:
			if c.pred.OnBranch(ev.PC, ev.Taken) {
				redirect = true
				c.mispredicts++
			} else if ev.Taken {
				// Correctly predicted taken: fetch-group break.
				fetchCursor++
				fetchedInCyc = 0
			}
		case isa.ClassJump:
			switch {
			case ev.Op == isa.OpJal:
				c.pred.OnCall(ev.PC + isa.InstBytes)
			case ev.Op == isa.OpJalr && ev.Rd == isa.RegZero:
				redirect = c.pred.OnReturn(ev.Target)
			case ev.Op == isa.OpJalr:
				c.pred.OnCall(ev.PC + isa.InstBytes)
				redirect = c.pred.OnTarget(ev.PC, ev.Target)
			}
			if redirect {
				c.mispredicts++
			} else {
				fetchCursor++ // taken transfer: fetch-group break
				fetchedInCyc = 0
			}
		case isa.ClassSys, isa.ClassHalt:
			// Syscalls serialise the pipeline.
			lat = uint64(cfg.SysLat)
			redirect, penalty = true, uint64(cfg.SysFlush)
			c.flushes++
		}
		if queue != nil && *queue > ready {
			ready = *queue
		}

		// --- Issue ---
		var issue uint64
		switch len(units) {
		case 4:
			issue = issue4((*[4]uint64)(units), ready, busy)
		case 2:
			issue = issue2((*[2]uint64)(units), ready, busy)
		default:
			issue = issueN(units, ready, busy)
		}
		complete := issue + lat
		if queue != nil {
			*queue = complete
		}
		if redirect {
			if f := complete + penalty; f > fetchCursor {
				fetchCursor = f
				fetchedInCyc = 0
			}
			lastFetchLine = ^uint64(0)
		}

		// --- Writeback ---
		if flags&opHasDest != 0 && ev.Rd != isa.RegZero {
			regReady[ev.Rd] = complete
		}

		// --- Retire (in order, width-limited) ---
		rc := complete
		if rc <= retireCycle {
			rc = retireCycle
			retiredInCyc++
			if retiredInCyc >= width {
				rc++
				retireCycle = rc
				retiredInCyc = 0
			}
		} else {
			retireCycle = rc
			retiredInCyc = 1
		}
		rob[robIdx] = rc
		if robIdx++; robIdx == len(rob) {
			robIdx = 0
		}
		c.byClass[ev.Class]++
	}

	c.fetchCursor = fetchCursor
	c.fetchedInCyc = fetchedInCyc
	c.lastFetchLine = lastFetchLine
	c.retireCycle = retireCycle
	c.retiredInCyc = retiredInCyc
	c.robIdx = robIdx
	c.loadIdx = loadIdx
	c.stIdx = stIdx
	c.instrs += uint64(len(evs))
}

// warmSink adapts the core to functional-warming mode: caches, TLBs and
// branch predictor are updated from the event stream, but no cycles are
// modelled. This is what SMARTS does between sampling units.
type warmSink struct{ c *Core }

// WarmSink returns a vm.Sink that performs functional warming only.
func (c *Core) WarmSink() vm.Sink { return warmSink{c} }

// OnEvents warms from a batch of events: the one body of the warm
// model. It walks the same structures in the same order as the detail
// model, computing no latency.
func (w warmSink) OnEvents(evs []vm.Event) {
	c := w.c
	lastFetchLine := c.lastFetchLine
	for i := range evs {
		ev := &evs[i]
		if line := ev.PC >> 6; line != lastFetchLine {
			lastFetchLine = line
			if !c.itlb.Access(ev.PC) {
				c.l2tlb.Access(ev.PC)
			}
			if !c.l1i.Access(ev.PC) {
				c.l2.Access(ev.PC)
			}
		}
		switch ev.Class {
		case isa.ClassLoad, isa.ClassStore:
			if !c.dtlb.Access(ev.MemAddr) {
				c.l2tlb.Access(ev.MemAddr)
			}
			if !c.l1d.Access(ev.MemAddr) {
				c.l2.Access(ev.MemAddr)
			}
		case isa.ClassBranch:
			c.pred.OnBranch(ev.PC, ev.Taken)
		case isa.ClassJump:
			switch {
			case ev.Op == isa.OpJal:
				c.pred.OnCall(ev.PC + isa.InstBytes)
			case ev.Op == isa.OpJalr && ev.Rd == isa.RegZero:
				c.pred.OnReturn(ev.Target)
			case ev.Op == isa.OpJalr:
				c.pred.OnCall(ev.PC + isa.InstBytes)
				c.pred.OnTarget(ev.PC, ev.Target)
			}
		case isa.ClassSys:
			lastFetchLine = ^uint64(0)
		}
	}
	c.lastFetchLine = lastFetchLine
}
