// Package timing implements the detailed microarchitecture timing
// simulator — the reproduction's stand-in for PTLsim (classic mode).
//
// The model is a constrained-dataflow out-of-order core: every retired
// instruction flows through fetch (I-cache, ITLB, width limits, taken-
// branch fetch breaks), dispatch (instruction-window occupancy),
// issue (register dependences, functional-unit pools, load/store buffer
// occupancy), execution (class latencies, D-cache/DTLB hierarchy), and
// in-order retirement (width-limited). Branches are predicted by a
// gshare/BTB/RAS complex; mispredictions stall fetch for the resolution
// plus the Table 1 penalty. This reproduces the sensitivities a cycle-
// accurate core has — ILP, memory locality, branch predictability —
// deterministically and at simulation speeds a sampling study needs.
//
// Known simplifications versus PTLsim (documented in DESIGN.md): the
// fetch queue is folded into a fixed front-end depth, stores complete in
// one cycle after issue (no store-to-load forwarding model), and there
// is no MSHR limit beyond load-buffer occupancy.
package timing

import (
	"strconv"

	"repro/internal/cache"
)

// Config is the microarchitecture configuration (Table 1 of the paper).
type Config struct {
	// Width is the fetch/issue/retire width (3).
	Width int
	// MispredictPenalty is the branch misprediction penalty in cycles (9).
	MispredictPenalty int
	// FetchQueue is the fetch-queue depth in instructions (18); folded
	// into FrontDepth in this model but kept for reporting.
	FetchQueue int
	// Window is the instruction-window size (192).
	Window int
	// LoadBuf and StoreBuf are the load/store buffer sizes (48/32).
	LoadBuf  int
	StoreBuf int
	// Functional-unit pool sizes: 4 int, 2 mem, 4 fp.
	IntALU   int
	MemPorts int
	FPUs     int

	// FrontDepth is the fetch-to-ready pipeline depth in cycles.
	FrontDepth int

	// Latencies (cycles).
	L1Lat    int // L1 hit (load-to-use)
	L2HitLat int // additional on L1 miss, L2 hit (16)
	MemLat   int // additional on L2 miss (190)
	L2TLBLat int // additional on L1 TLB miss, L2 TLB hit
	WalkLat  int // additional on L2 TLB miss (page walk)
	MulLat   int
	DivLat   int
	FPLat    int
	FDivLat  int
	SysLat   int // syscall execution latency
	SysFlush int // additional pipeline drain on syscalls

	// Cache and TLB geometry.
	L1I   cache.Config
	L1D   cache.Config
	L2    cache.Config
	ITLB  cache.TLBConfig
	DTLB  cache.TLBConfig
	L2TLB cache.TLBConfig

	// SharedL2, when non-nil, is used instead of a private L2 — the
	// multi-core configuration (internal/smp): cores contend for L2
	// capacity. Only capacity/conflict interference is modelled; the
	// cores' cycle domains remain independent (no coherence traffic,
	// no shared-port arbitration).
	SharedL2 *cache.Cache
}

// DefaultConfig returns the Table 1 configuration: a 3-issue core
// resembling one core of an AMD Opteron 280.
func DefaultConfig() Config {
	return Config{
		Width:             3,
		MispredictPenalty: 9,
		FetchQueue:        18,
		Window:            192,
		LoadBuf:           48,
		StoreBuf:          32,
		IntALU:            4,
		MemPorts:          2,
		FPUs:              4,
		FrontDepth:        5,
		L1Lat:             3,
		L2HitLat:          16,
		MemLat:            190,
		L2TLBLat:          4,
		WalkLat:           30,
		MulLat:            3,
		DivLat:            20,
		FPLat:             4,
		FDivLat:           12,
		SysLat:            10,
		SysFlush:          20,
		L1I:               cache.Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 2, LineBytes: 64},
		L1D:               cache.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 2, LineBytes: 64},
		L2:                cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 4, LineBytes: 128},
		ITLB:              cache.TLBConfig{Name: "ITLB", Entries: 40, Ways: 0, PageShift: 12},
		DTLB:              cache.TLBConfig{Name: "DTLB", Entries: 40, Ways: 0, PageShift: 12},
		L2TLB:             cache.TLBConfig{Name: "L2TLB", Entries: 512, Ways: 4, PageShift: 12},
	}
}

// TableRows renders the configuration as the rows of the paper's
// Table 1, for the reproduction harness.
func (c Config) TableRows() [][2]string {
	return [][2]string{
		{"Fetch/Issue/Retire Width", strconv.Itoa(c.Width) + " instructions"},
		{"Branch Mispred. Penalty", strconv.Itoa(c.MispredictPenalty) + " processor cycles"},
		{"Fetch Queue Size", strconv.Itoa(c.FetchQueue) + " instructions"},
		{"Instruction window size", strconv.Itoa(c.Window) + " instructions"},
		{"Load/Store buffer sizes", strconv.Itoa(c.LoadBuf) + " load, " + strconv.Itoa(c.StoreBuf) + " store"},
		{"Functional units", strconv.Itoa(c.IntALU) + " int, " + strconv.Itoa(c.MemPorts) + " mem, " + strconv.Itoa(c.FPUs) + " fp"},
		{"Branch Prediction", "16K-entry gshare; 32K-entry BTB; 16-entry RAS"},
		{"L1 Instruction Cache", "64KB, 2-way, 64B line size"},
		{"L1 Data Cache", "64KB, 2-way, 64B line size"},
		{"L2 Unified Cache", "1MB, 4-way, 128B line size"},
		{"L2 Unified Cache Hit Lat.", strconv.Itoa(c.L2HitLat) + " processor cycles"},
		{"L1 Instruction TLB", strconv.Itoa(c.ITLB.Entries) + " entries, full-associative"},
		{"L1 Data TLB", strconv.Itoa(c.DTLB.Entries) + " entries, full-associative"},
		{"L2 Unified TLB", strconv.Itoa(c.L2TLB.Entries) + " entries, 4-way"},
		{"TLB pagesize", "4KB"},
		{"Memory Latency", strconv.Itoa(c.MemLat) + " processor cycles"},
	}
}
