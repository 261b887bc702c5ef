package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestSelfModifyingCodeInvalidation overwrites an executed routine and
// checks both architectural correctness (the new code runs) and the
// translation-cache invalidation accounting (the CPU metric).
func TestSelfModifyingCodeInvalidation(t *testing.T) {
	// Routine at 0x3000 initially returns 1; main patches it to return
	// 2 and calls it again.
	rb := asm.NewBuilder(0x3000)
	rb.I(isa.OpMovi, 3, 0, 1)
	rb.Jalr(0, 30, 0)
	routine := rb.Words()

	pb := asm.NewBuilder(0x3000) // same base: position-independent patch
	pb.I(isa.OpMovi, 3, 0, 2)
	pb.Jalr(0, 30, 0)
	patch := pb.Words()

	b := asm.NewBuilder(0x1000)
	b.Movi(28, 0x3000)
	b.Jalr(30, 28, 0) // first call
	b.R(isa.OpAdd, 4, 3, 0)
	// Patch instruction 0 of the routine.
	b.Movi(5, int64(patch[0]))
	b.St(5, 28, 0)
	b.Jalr(30, 28, 0) // second call
	b.Halt()

	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	img.AddSegment(0x3000, routine)
	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)
	m.RunToCompletion(0, nil)

	if m.Reg(4) != 1 || m.Reg(3) != 2 {
		t.Fatalf("first=%d second=%d, want 1,2", m.Reg(4), m.Reg(3))
	}
	if m.Stats().TCInvalidations == 0 {
		t.Fatal("store to executed code must invalidate translations")
	}
}

// TestCapacityFlush forces the translation cache over capacity and
// checks the Dynamo-style full flush fires and execution stays correct.
func TestCapacityFlush(t *testing.T) {
	// A long chain of tiny blocks: jmp +8 over many pages... simpler:
	// alternate many branch-separated blocks in a loop.
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 3) // passes
	b.Label("again")
	for i := 0; i < 300; i++ {
		b.Nop()
		b.Br(isa.OpBeq, 0, 0, "t"+itoa(i)) // always taken: block boundary
		b.Label("t" + itoa(i))
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "again")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20, TCMaxBlocks: 64})
	m.Load(img)
	m.RunToCompletion(0, nil)
	st := m.Stats()
	if st.TCFlushes == 0 {
		t.Fatal("capacity flush never fired")
	}
	if st.TCInvalidations < uint64(st.TCFlushes)*32 {
		t.Fatalf("flushes should invalidate many blocks: %d flushes, %d invalidations",
			st.TCFlushes, st.TCInvalidations)
	}
	if m.Reg(1) != 0 {
		t.Fatal("execution incorrect under flushes")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// fibProgram computes fib(20) iteratively; used by equivalence tests.
func fibProgram() *asm.Image {
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 0)  // a
	b.Movi(2, 1)  // b
	b.Movi(3, 20) // n
	b.Label("loop")
	b.R(isa.OpAdd, 4, 1, 2)
	b.R(isa.OpAdd, 1, 2, 0)
	b.R(isa.OpAdd, 2, 4, 0)
	b.I(isa.OpAddi, 3, 3, -1)
	b.Br(isa.OpBne, 3, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	return img
}

// TestPartitionInvariance checks that architectural state and guest-
// visible statistics are identical no matter how a run is sliced into
// Run calls (the interval engine relies on this).
func TestPartitionInvariance(t *testing.T) {
	reference := New(Config{MemSpan: 64 << 20})
	reference.Load(fibProgram())
	refN := reference.RunToCompletion(0, nil)
	refStats := reference.Stats()

	f := func(chunks []uint8) bool {
		m := New(Config{MemSpan: 64 << 20})
		m.Load(fibProgram())
		for _, c := range chunks {
			m.Run(uint64(c%17)+1, nil)
			if m.Halted() {
				break
			}
		}
		m.RunToCompletion(0, nil)
		st := m.Stats()
		return m.Halted() &&
			st.Instructions == refN &&
			m.Reg(1) == reference.Reg(1) &&
			st.MemReads == refStats.MemReads &&
			st.MemWrites == refStats.MemWrites &&
			st.Syscalls == refStats.Syscalls &&
			st.PageFaults == refStats.PageFaults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if reference.Reg(1) != 6765 {
		t.Fatalf("fib(20) = %d", reference.Reg(1))
	}
}

// TestEventModeEquivalence checks that event generation is observation
// only: fast mode and event mode produce identical architectural results
// and guest statistics.
func TestEventModeEquivalence(t *testing.T) {
	fast := New(Config{MemSpan: 64 << 20})
	fast.Load(fibProgram())
	fast.RunToCompletion(0, nil)

	var sink CountingSink
	ev := New(Config{MemSpan: 64 << 20})
	ev.Load(fibProgram())
	ev.RunToCompletion(0, &sink)

	if fast.Reg(1) != ev.Reg(1) {
		t.Fatal("architectural divergence between modes")
	}
	fs, es := fast.Stats(), ev.Stats()
	if fs != es {
		t.Fatalf("stats diverge:\nfast  %+v\nevent %+v", fs, es)
	}
	if sink.Total != es.Instructions {
		t.Fatalf("events %d != instructions %d", sink.Total, es.Instructions)
	}
}

// TestEventContents validates the fields of generated events.
func TestEventContents(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 0x2000)
	b.St(1, 1, 0)
	b.Ld(2, 1, 0)
	b.Br(isa.OpBeq, 0, 0, "next")
	b.Label("next")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)

	var events []Event
	m.RunToCompletion(0, perEvent(func(e *Event) { events = append(events, *e) }))

	if len(events) != 5 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].PC != 0x1000 || events[0].NextPC != 0x1008 {
		t.Fatalf("event0 pc=%#x next=%#x", events[0].PC, events[0].NextPC)
	}
	st := events[1]
	if st.Class != isa.ClassStore || st.MemAddr != 0x2000 {
		t.Fatalf("store event %+v", st)
	}
	ld := events[2]
	if ld.Class != isa.ClassLoad || ld.MemAddr != 0x2000 || ld.Rd != 2 {
		t.Fatalf("load event %+v", ld)
	}
	br := events[3]
	if br.Class != isa.ClassBranch || !br.Taken || br.Target != br.PC+8 {
		t.Fatalf("branch event %+v", br)
	}
	if events[4].Class != isa.ClassHalt {
		t.Fatalf("last event %+v", events[4])
	}
}

// TestBlockChainingCorrectness runs a branchy loop and verifies the
// chained fast path computes the same result as an unchained machine
// with a tiny translation cache (constant re-translation).
func TestBlockChainingCorrectness(t *testing.T) {
	prog := func() *asm.Image {
		b := asm.NewBuilder(0x1000)
		b.Movi(1, 500)
		b.Movi(2, 0x9e3779b9)
		b.Label("loop")
		b.I(isa.OpSlli, 3, 2, 2)
		b.R(isa.OpAdd, 2, 2, 3)
		b.I(isa.OpAddi, 2, 2, 1)
		b.I(isa.OpSrli, 3, 2, 63)
		b.Br(isa.OpBne, 3, 0, "odd")
		b.I(isa.OpAddi, 4, 4, 1)
		b.Jmp("next")
		b.Label("odd")
		b.I(isa.OpAddi, 5, 5, 1)
		b.Label("next")
		b.I(isa.OpAddi, 1, 1, -1)
		b.Br(isa.OpBne, 1, 0, "loop")
		b.Halt()
		img := &asm.Image{Entry: 0x1000}
		img.AddSegment(0x1000, b.Words())
		return img
	}
	big := New(Config{MemSpan: 64 << 20})
	big.Load(prog())
	big.RunToCompletion(0, nil)
	tiny := New(Config{MemSpan: 64 << 20, TCMaxBlocks: 2})
	tiny.Load(prog())
	tiny.RunToCompletion(0, nil)
	for _, r := range []int{2, 4, 5} {
		if big.Reg(r) != tiny.Reg(r) {
			t.Fatalf("r%d: chained %d vs tiny-TC %d", r, big.Reg(r), tiny.Reg(r))
		}
	}
	if tiny.Stats().TCFlushes == 0 {
		t.Fatal("tiny TC should have flushed")
	}
}

func TestIllegalInstructionPanics(t *testing.T) {
	m := New(Config{MemSpan: 64 << 20})
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, []uint64{0xfe}) // invalid opcode
	m.Load(img)
	defer func() {
		if recover() == nil {
			t.Fatal("illegal instruction must panic")
		}
	}()
	m.Run(1, nil)
}

// TestTLBRefillCounting pins the exact refill count of a program that
// reads 64 data pages (vpns 0x1000..0x103f) in order, twice, from code
// on page 1, under two TLB geometries. Data page 0x1000+k maps to slot
// k mod entries; the code page maps to slot 1. Instruction-side lookups
// happen only when a block is translated, and five blocks are: the
// entry block (Ld of page 0), the inner loop (pages 1..63), the outer
// loop's tail, the second pass's head (Ld of page 0) and the halt block.
//
//   - 16 entries (every access conflicts): pass 1 refills for the entry
//     block's translation, the 64 data pages and the tail's translation
//     (page 49 now holds slot 1); the inner loop's and the second
//     head's translations find the code page in slot 1 (66). Pass 2
//     finds every data slot holding the page 16 or 48 before it, so all
//     64 refill, and the halt block's translation finds page 49 in
//     slot 1 (65). Total 131.
//   - 1024 entries (only slot 1 is shared): pass 1 is the same 66. Pass
//     2 hits every data page but page 1, whose slot the tail's
//     translation refilled with the code page, and the halt block's
//     translation finds page 1 there (2). Total 68.
//
// A memo in front of the TLB that skipped a probe which should have
// refilled would break either count. Every refill is an exception, and
// so is each first touch of a data page.
func TestTLBRefillCounting(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Movi(4, 2) // passes
	b.Label("outer")
	b.Movi(1, 0x100_0000)
	b.Movi(2, 64) // pages
	b.Label("loop")
	b.Ld(3, 1, 0)
	b.I(isa.OpAddi, 1, 1, 4096)
	b.I(isa.OpAddi, 2, 2, -1)
	b.Br(isa.OpBne, 2, 0, "loop")
	b.I(isa.OpAddi, 4, 4, -1)
	b.Br(isa.OpBne, 4, 0, "outer")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	for _, c := range []struct {
		entries int
		refills uint64
	}{{16, 131}, {1024, 68}} {
		m := New(Config{MemSpan: 64 << 20, TLBEntries: c.entries})
		m.Load(img)
		m.RunToCompletion(0, nil)
		st := m.Stats()
		if st.TLBRefills != c.refills {
			t.Errorf("%d entries: TLB refills = %d, want %d", c.entries, st.TLBRefills, c.refills)
		}
		if st.PageFaults != 64 || st.Exceptions != st.TLBRefills+st.PageFaults {
			t.Errorf("%d entries: %d exceptions, want %d refills + %d page faults (64)",
				c.entries, st.Exceptions, st.TLBRefills, st.PageFaults)
		}
	}
}

// chainLoopIters is the trip count of the hot loops below: enough
// iterations for every chain memo to form and be followed many times.
const chainLoopIters = 128

// liveChains lists every live block whose chain memo names a live
// successor, as (block, successor) pairs.
func liveChains(m *Machine) [][2]*block {
	var out [][2]*block
	for _, b := range m.tc {
		if nb := b.chainBlk; !b.dead && nb != nil && !nb.dead {
			out = append(out, [2]*block{b, nb})
		}
	}
	return out
}

// TestChainKeepsHotLoopOffLookup is the chain memo's non-vacuity
// check. The program is an entry block A (movi; slli; beq), whose beq
// jumps into the loop's second block B (addi; addi; bne), and the loop
// head C (slli; beq) at B's taken target. One Run executes it all
// (50 002 instructions, under one chunk), and it makes exactly five
// translation-cache lookups: A at the top of dispatch; the first chain
// misses A→B and B→C; C→B, the loop head's first miss (B is already
// live, so it translates nothing); and B→halt on the last iteration,
// where the not-taken bne misses B's memo of C. Every other block end
// is a chain hit. A memo that never engages looks up at every block
// end: 20 001 lookups. The batch count is the delivery rule: one per
// full batch of 256 and one at Run's return.
func TestChainKeepsHotLoopOffLookup(t *testing.T) {
	const iters = 10000
	b := asm.NewBuilder(0x1000)
	b.Movi(1, iters)
	b.Label("loop")
	b.I(isa.OpSlli, 3, 2, 1)
	b.Br(isa.OpBeq, 0, 0, "mid") // always taken: splits the loop body
	b.Label("mid")
	b.I(isa.OpAddi, 2, 2, 3)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)
	sink := &CountingSink{}
	m.RunToCompletion(0, sink)

	if m.Reg(2) != 3*iters {
		t.Fatalf("r2 = %d, want %d", m.Reg(2), 3*iters)
	}
	const instrs = 1 + 5*iters + 1
	if sink.Total != instrs || m.Stats().Instructions != instrs {
		t.Fatalf("%d events, %d instructions, want %d each", sink.Total, m.Stats().Instructions, instrs)
	}
	if m.lookups != 5 {
		t.Fatalf("%d translation-cache lookups, want 5: the chain memo is not engaging", m.lookups)
	}
	if want := uint64((instrs + 255) / 256); m.BatchFlushes() != want {
		t.Fatalf("%d batch flushes for %d events, want %d", m.BatchFlushes(), sink.Total, want)
	}
}

// traceEdgeCase is one scenario for TestTraceEdgeCases: build
// constructs the program, check inspects the finished machine.
type traceEdgeCase struct {
	name  string
	cfg   Config
	build func() *asm.Image
	check func(t *testing.T, m *Machine)
}

// TestTraceEdgeCases runs hot loops whose path through chained blocks
// (their trace) meets a chain memo's corner cases — a store killing a
// block the running chain reaches, a loop body crossing a page
// boundary, and chain formation under EventBatch=1 — and in each case
// requires architectural state identical to a reference machine whose
// tiny translation cache flushes constantly (so chain memos never
// persist long enough to matter).
func TestTraceEdgeCases(t *testing.T) {
	cases := []traceEdgeCase{
		{
			// A hot loop calls a routine; after the call has chained
			// into the routine, the loop patches the routine's first
			// instruction. The chained block dies, and the next call
			// must miss the chain and run the retranslated code.
			name: "smc-kills-mid-trace-block",
			build: func() *asm.Image {
				rb := asm.NewBuilder(0x3000)
				rb.I(isa.OpAddi, 3, 3, 1)
				rb.Jalr(0, 30, 0)
				routine := rb.Words()

				pb := asm.NewBuilder(0x3000)
				pb.I(isa.OpAddi, 3, 3, 100)
				patch := pb.Words()

				b := asm.NewBuilder(0x1000)
				b.Movi(1, chainLoopIters)
				b.Movi(28, 0x3000)
				b.Movi(6, int64(chainLoopIters/2))
				b.Label("loop")
				b.Jalr(30, 28, 0)
				// Halfway through, patch the routine once.
				b.Br(isa.OpBne, 1, 6, "skip")
				b.Movi(5, int64(patch[0]))
				b.St(5, 28, 0)
				b.Label("skip")
				b.I(isa.OpAddi, 1, 1, -1)
				b.Br(isa.OpBne, 1, 0, "loop")
				b.Halt()
				img := &asm.Image{Entry: 0x1000}
				img.AddSegment(0x1000, b.Words())
				img.AddSegment(0x3000, routine)
				return img
			},
			check: func(t *testing.T, m *Machine) {
				if m.Stats().TCInvalidations == 0 {
					t.Error("patching hot code must invalidate translations")
				}
			},
		},
		{
			// The loop body is longer than one page of code, so the
			// blocks it chains live on two pages and the page-capped
			// block falls through across the boundary.
			name: "trace-spans-page-boundary",
			build: func() *asm.Image {
				// Place the loop head so the straight-line body crosses
				// the boundary between the pages at 0x1000 and 0x2000.
				b := asm.NewBuilder(0x2000 - 64*8)
				b.Movi(1, chainLoopIters)
				b.Label("loop")
				for i := 0; i < 128; i++ {
					b.I(isa.OpAddi, 2, 2, 1)
				}
				b.I(isa.OpAddi, 1, 1, -1)
				b.Br(isa.OpBne, 1, 0, "loop")
				b.Halt()
				img := &asm.Image{Entry: 0x2000 - 64*8}
				img.AddSegment(0x2000-64*8, b.Words())
				return img
			},
			check: func(t *testing.T, m *Machine) {
				if m.Reg(2) != 128*chainLoopIters {
					t.Errorf("r2 = %d, want %d", m.Reg(2), 128*chainLoopIters)
				}
				for _, c := range liveChains(m) {
					if c[0].pc>>mem.PageShift != c[1].pc>>mem.PageShift {
						return // found a cross-page chain
					}
				}
				t.Error("no chain memo crosses the page boundary")
			},
		},
		{
			// EventBatch=1 flushes the batch after every retirement; the
			// flush path must not disturb chain formation or execution.
			name: "formation-under-eventbatch-1",
			cfg:  Config{MemSpan: 64 << 20, EventBatch: 1},
			build: func() *asm.Image {
				b := asm.NewBuilder(0x1000)
				b.Movi(1, chainLoopIters)
				b.Label("loop")
				b.I(isa.OpAddi, 2, 2, 7)
				b.Br(isa.OpBeq, 0, 0, "mid")
				b.Label("mid")
				b.I(isa.OpAddi, 1, 1, -1)
				b.Br(isa.OpBne, 1, 0, "loop")
				b.Halt()
				img := &asm.Image{Entry: 0x1000}
				img.AddSegment(0x1000, b.Words())
				return img
			},
			check: func(t *testing.T, m *Machine) {
				if len(liveChains(m)) == 0 {
					t.Error("no chain memo formed under EventBatch=1")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.build()

			cfg := tc.cfg
			if cfg.MemSpan == 0 {
				cfg.MemSpan = 64 << 20
			}
			m := New(cfg)
			m.Load(img)
			var sink *CountingSink
			if cfg.EventBatch != 0 {
				sink = &CountingSink{}
			}
			if sink != nil {
				m.RunToCompletion(0, sink)
			} else {
				m.RunToCompletion(0, nil)
			}

			// Reference: a tiny TC flushes constantly, so chain memos
			// never survive long enough to influence anything.
			// Architectural state must match exactly.
			ref := New(Config{MemSpan: 64 << 20, TCMaxBlocks: 2})
			ref.Load(tc.build())
			ref.RunToCompletion(0, nil)
			for r := 0; r < isa.NumRegs; r++ {
				if m.Reg(r) != ref.Reg(r) {
					t.Fatalf("r%d: chained %d vs reference %d", r, m.Reg(r), ref.Reg(r))
				}
			}
			ms, rs := m.Stats(), ref.Stats()
			if ms.Instructions != rs.Instructions ||
				ms.MemReads != rs.MemReads || ms.MemWrites != rs.MemWrites ||
				ms.Branches != rs.Branches || ms.TakenBr != rs.TakenBr ||
				ms.PageFaults != rs.PageFaults {
				t.Fatalf("retirement stats diverge:\nchained   %+v\nreference %+v", ms, rs)
			}
			if sink != nil && sink.Total != ms.Instructions {
				t.Fatalf("events %d != instructions %d", sink.Total, ms.Instructions)
			}
			if tc.check != nil {
				tc.check(t, m)
			}
		})
	}
}
