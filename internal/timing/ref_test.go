package timing

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/vm"
)

// refCore is the timing model's oracle: the straightforward per-event
// formulation of the detail model (one method call per pipeline stage,
// every index wrapped with %, the isa predicates called directly, a
// linear scan for the earliest-free functional unit), on its own cache,
// TLB and predictor instances. The production Core processes batches
// with its state in locals; the differential tests in diff_test.go feed
// both the same events and require equal state after every batch.
//
// Keep this body obvious. It is the definition the batch body is
// checked against, so it must never share an optimisation with it.
type refCore struct {
	cfg  Config
	pred *branch.Predictor

	l1i, l1d, l2      *cache.Cache
	itlb, dtlb, l2tlb *cache.TLB

	fetchCursor   uint64
	fetchedInCyc  int
	lastFetchLine uint64

	retireCycle  uint64
	retiredInCyc int

	regReady [isa.NumRegs]uint64

	rob     []uint64
	robIdx  int
	loadQ   []uint64
	loadIdx int
	storeQ  []uint64
	stIdx   int

	fu [numFU][]uint64

	instrs      uint64
	loads       uint64
	stores      uint64
	mispredicts uint64
	flushes     uint64
	byClass     [isa.NumClasses]uint64
}

func newRefCore(cfg Config) *refCore {
	l2 := cfg.SharedL2
	if l2 == nil {
		l2 = cache.New(cfg.L2)
	}
	c := &refCore{
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

func (c *refCore) Snapshot() Snapshot {
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

// dmemLatency computes a load's total latency through DTLB and the data
// cache hierarchy.
func (c *refCore) dmemLatency(addr uint64) int {
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
	return lat
}

// ifetch charges instruction-fetch latency when the fetch stream crosses
// into a new cache line.
func (c *refCore) ifetch(pc uint64) {
	line := pc >> 6
	if line == c.lastFetchLine {
		return
	}
	c.lastFetchLine = line
	extra := 0
	if !c.itlb.Access(pc) {
		if c.l2tlb.Access(pc) {
			extra += c.cfg.L2TLBLat
		} else {
			extra += c.cfg.L2TLBLat + c.cfg.WalkLat
		}
	}
	if !c.l1i.Access(pc) {
		if c.l2.Access(pc) {
			extra += c.cfg.L2HitLat
		} else {
			extra += c.cfg.L2HitLat + c.cfg.MemLat
		}
	}
	if extra > 0 {
		c.fetchCursor += uint64(extra)
		c.fetchedInCyc = 0
	}
}

// issueOn picks the earliest-free unit in a pool and occupies it from
// the issue cycle for busy cycles. It returns the issue cycle.
func (c *refCore) issueOn(pool fuKind, ready uint64, busy int) uint64 {
	units := c.fu[pool]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issue := ready
	if units[best] > issue {
		issue = units[best]
	}
	units[best] = issue + uint64(busy)
	return issue
}

// perEvent adapts a per-event function to vm.Sink, so the reference
// bodies below can stand wherever a production sink does. Per-event
// delivery exists only here, on the test side.
func perEvent(f func(*vm.Event)) vm.Sink {
	return vm.BatchFunc(func(evs []vm.Event) {
		for i := range evs {
			f(&evs[i])
		}
	})
}

// OnEvent processes one retired instruction in full detail.
func (c *refCore) OnEvent(ev *vm.Event) {
	cfg := &c.cfg

	// --- Fetch ---
	c.ifetch(ev.PC)
	// Window occupancy: this instruction reuses the ROB slot of the
	// instruction Window positions back; fetch stalls until it retired.
	if free := c.rob[c.robIdx]; free > c.fetchCursor {
		c.fetchCursor = free
		c.fetchedInCyc = 0
	}
	fetch := c.fetchCursor
	c.fetchedInCyc++
	if c.fetchedInCyc >= cfg.Width {
		c.fetchCursor++
		c.fetchedInCyc = 0
	}

	// --- Ready (dispatch + operand availability) ---
	ready := fetch + uint64(cfg.FrontDepth)
	if ev.Op.ReadsRs1() {
		if r := c.regReady[ev.Rs1]; r > ready {
			ready = r
		}
	}
	if ev.Op.ReadsRs2() {
		if r := c.regReady[ev.Rs2]; r > ready {
			ready = r
		}
	}

	// --- Issue + execute ---
	var issue, complete uint64
	redirect := false
	switch ev.Class {
	case isa.ClassLoad:
		if free := c.loadQ[c.loadIdx]; free > ready {
			ready = free
		}
		issue = c.issueOn(fuMem, ready, 1)
		complete = issue + uint64(c.dmemLatency(ev.MemAddr))
		c.loadQ[c.loadIdx] = complete
		c.loadIdx = (c.loadIdx + 1) % cfg.LoadBuf
		c.loads++
	case isa.ClassStore:
		if free := c.storeQ[c.stIdx]; free > ready {
			ready = free
		}
		issue = c.issueOn(fuMem, ready, 1)
		// Stores complete once the address is known; the write drains
		// from the store buffer after retirement.
		c.dmemLatency(ev.MemAddr) // warm the hierarchy
		complete = issue + 1
		c.storeQ[c.stIdx] = complete
		c.stIdx = (c.stIdx + 1) % cfg.StoreBuf
		c.stores++
	case isa.ClassMul:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + uint64(cfg.MulLat)
	case isa.ClassDiv:
		issue = c.issueOn(fuInt, ready, cfg.DivLat) // unpipelined
		complete = issue + uint64(cfg.DivLat)
	case isa.ClassFP:
		issue = c.issueOn(fuFP, ready, 1)
		complete = issue + uint64(cfg.FPLat)
	case isa.ClassFDiv:
		issue = c.issueOn(fuFP, ready, cfg.FDivLat) // unpipelined
		complete = issue + uint64(cfg.FDivLat)
	case isa.ClassBranch:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
		if c.pred.OnBranch(ev.PC, ev.Taken) {
			redirect = true
		} else if ev.Taken {
			// Correctly predicted taken: fetch-group break.
			c.fetchCursor++
			c.fetchedInCyc = 0
		}
	case isa.ClassJump:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
		switch {
		case ev.Op == isa.OpJal:
			c.pred.OnCall(ev.PC + isa.InstBytes)
		case ev.Op == isa.OpJalr && ev.Rd == isa.RegZero:
			if c.pred.OnReturn(ev.Target) {
				redirect = true
			}
		case ev.Op == isa.OpJalr:
			c.pred.OnCall(ev.PC + isa.InstBytes)
			if c.pred.OnTarget(ev.PC, ev.Target) {
				redirect = true
			}
		}
		if !redirect {
			c.fetchCursor++ // taken transfer: fetch-group break
			c.fetchedInCyc = 0
		}
	case isa.ClassSys, isa.ClassHalt:
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + uint64(cfg.SysLat)
		// Syscalls serialise the pipeline.
		if f := complete + uint64(cfg.SysFlush); f > c.fetchCursor {
			c.fetchCursor = f
			c.fetchedInCyc = 0
		}
		c.flushes++
		c.lastFetchLine = ^uint64(0)
	default: // ClassALU, ClassNop
		issue = c.issueOn(fuInt, ready, 1)
		complete = issue + 1
	}

	if redirect {
		c.mispredicts++
		if f := complete + uint64(cfg.MispredictPenalty); f > c.fetchCursor {
			c.fetchCursor = f
			c.fetchedInCyc = 0
		}
		c.lastFetchLine = ^uint64(0)
	}

	// --- Writeback ---
	if ev.Op.HasDest() && ev.Rd != isa.RegZero {
		c.regReady[ev.Rd] = complete
	}

	// --- Retire (in order, width-limited) ---
	rc := complete
	if rc < c.retireCycle {
		rc = c.retireCycle
	}
	if rc == c.retireCycle {
		c.retiredInCyc++
		if c.retiredInCyc >= cfg.Width {
			rc++
			c.retireCycle = rc
			c.retiredInCyc = 0
		}
	} else {
		c.retireCycle = rc
		c.retiredInCyc = 1
	}
	c.rob[c.robIdx] = rc
	c.robIdx = (c.robIdx + 1) % cfg.Window
	c.instrs++
	c.byClass[ev.Class]++
}

// warm is the reference functional-warming body: stateful structures
// are updated from the event, no cycles are modelled.
func (c *refCore) warm(ev *vm.Event) {
	line := ev.PC >> 6
	if line != c.lastFetchLine {
		c.lastFetchLine = line
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
		c.lastFetchLine = ^uint64(0)
	}
}

// sortedUnits returns a pool's free times in ascending order. Which
// unit holds which free time is not timing-visible — an instruction
// takes the earliest-free unit — so pools compare as multisets.
func sortedUnits(u []uint64) []uint64 {
	s := append([]uint64(nil), u...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// diffState compares everything the model carries from one event to the
// next: the Snapshot surface plus the pipeline state Snapshot does not
// export (fetch cursor, scoreboard, occupancy rings, unit pools). It
// returns "" when the core and the reference agree.
func diffState(c *Core, r *refCore) string {
	if cs, rs := c.Snapshot(), r.Snapshot(); cs != rs {
		return fmt.Sprintf("snapshot:\n core %+v\n ref  %+v", cs, rs)
	}
	type scalar struct {
		name      string
		core, ref interface{}
	}
	for _, s := range []scalar{
		{"fetchCursor", c.fetchCursor, r.fetchCursor},
		{"fetchedInCyc", c.fetchedInCyc, r.fetchedInCyc},
		{"lastFetchLine", c.lastFetchLine, r.lastFetchLine},
		{"retiredInCyc", c.retiredInCyc, r.retiredInCyc},
		{"regReady", c.regReady, r.regReady},
		{"rob", c.rob, r.rob},
		{"robIdx", c.robIdx, r.robIdx},
		{"loadQ", c.loadQ, r.loadQ},
		{"loadIdx", c.loadIdx, r.loadIdx},
		{"storeQ", c.storeQ, r.storeQ},
		{"stIdx", c.stIdx, r.stIdx},
		{"fu[int]", sortedUnits(c.fu[fuInt]), sortedUnits(r.fu[fuInt])},
		{"fu[mem]", sortedUnits(c.fu[fuMem]), sortedUnits(r.fu[fuMem])},
		{"fu[fp]", sortedUnits(c.fu[fuFP]), sortedUnits(r.fu[fuFP])},
	} {
		if !reflect.DeepEqual(s.core, s.ref) {
			return fmt.Sprintf("%s: core %v, ref %v", s.name, s.core, s.ref)
		}
	}
	return ""
}
