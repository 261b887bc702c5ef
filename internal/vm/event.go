package vm

import "repro/internal/isa"

// Event describes one retired guest instruction. Events are only
// produced in event-generating mode (Run with a non-nil Sink); in fast
// mode the VM executes the identical architectural state transitions
// without materialising events, which is where its speed comes from.
//
// The Event layout mirrors what the paper's modified SimNow delivers to
// PTLsim: program counter, operation class, register operands, the
// effective address of memory operations, and resolved control flow.
type Event struct {
	PC      uint64
	NextPC  uint64 // architecturally resolved next PC
	MemAddr uint64 // effective address for loads/stores
	Target  uint64 // branch/jump destination when taken
	Op      isa.Op
	Class   isa.Class
	Rd      uint8
	Rs1     uint8
	Rs2     uint8
	Taken   bool // conditional branches: outcome
}

// Sink consumes the instruction event stream: the one interface between
// the VM and everything behind it — the timing core (full detail), its
// functional-warming adaptor (caches and predictors only), the BBV
// profiler, the trace writer. The VM buffers retired-instruction events
// into a fixed-capacity batch inline in the interpreter loop and
// delivers them in slices, amortising interface dispatch and event
// copies across hundreds of instructions.
//
// A batch is delivered (flushed) at two points only: when it is full,
// and when Run returns, whether the budget is spent or the guest
// halted. Sinks read no machine state, so nothing else needs a flush.
// Events arrive in retirement order, and results are bit-identical for
// every batch capacity (internal/check's batch-invariance checker
// enforces this against one-event batches, and that each Run call
// makes exactly ⌈executed/capacity⌉ deliveries).
//
// The slice is only valid for the duration of the call and is reused
// for the next batch; sinks must copy anything they keep.
type Sink interface {
	OnEvents(evs []Event)
}

// BatchSink is the name bench/ still spells for Sink; owed to the next
// benchmark PR, which may edit bench/ and delete this line.
type BatchSink = Sink

// BatchFunc adapts a function to the Sink interface.
type BatchFunc func(evs []Event)

// OnEvents calls f(evs).
func (f BatchFunc) OnEvents(evs []Event) { f(evs) }

// CountingSink counts events by class; useful in tests.
type CountingSink struct {
	Total   uint64
	ByClass [isa.NumClasses]uint64
}

// OnEvents records a batch of events. Counts accumulate into two
// interleaved local tables before merging into ByClass: a run of
// same-class events (the common shape — ALU-heavy guest code) would
// otherwise serialise on the store-to-load latency of one counter
// slot, which dominates the per-event cost at interpreter speeds. The
// tables are a power-of-two length indexed by a masked class so the
// inner loop carries no bounds check; guest classes never exceed
// isa.NumClasses, so the mask is a no-op semantically.
func (c *CountingSink) OnEvents(evs []Event) {
	c.Total += uint64(len(evs))
	var a, b [16]uint64
	i := 0
	for ; i+1 < len(evs); i += 2 {
		a[evs[i].Class&15]++
		b[evs[i+1].Class&15]++
	}
	if i < len(evs) {
		a[evs[i].Class&15]++
	}
	for cl := range c.ByClass {
		c.ByClass[cl] += a[cl] + b[cl]
	}
}
