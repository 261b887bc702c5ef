package vm

import (
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// perEvent adapts a per-event function to Sink: the per-event
// formulation of delivery, which exists only on the test side.
func perEvent(f func(*Event)) Sink {
	return BatchFunc(func(evs []Event) {
		for i := range evs {
			f(&evs[i])
		}
	})
}

// TestBatchSizeInvariance runs the same program per event-batch
// capacity and requires architectural state, statistics, and delivered
// event counts to be bit-identical to one-event batches counted event
// by event.
func TestBatchSizeInvariance(t *testing.T) {
	ref := New(Config{MemSpan: 64 << 20, EventBatch: 1})
	ref.Load(fibProgram())
	refSink := &CountingSink{}
	ref.RunToCompletion(0, perEvent(func(e *Event) {
		refSink.Total++
		refSink.ByClass[e.Class]++
	}))
	refStats := ref.Stats()

	for _, bs := range []int{1, 3, 64, 4096} {
		m := New(Config{MemSpan: 64 << 20, EventBatch: bs})
		m.Load(fibProgram())
		sink := &CountingSink{}
		m.RunToCompletion(0, sink)
		if m.Reg(1) != ref.Reg(1) {
			t.Fatalf("batch=%d: r1=%d, per-event r1=%d", bs, m.Reg(1), ref.Reg(1))
		}
		if st := m.Stats(); st != refStats {
			t.Fatalf("batch=%d stats diverge:\nbatched   %+v\nper-event %+v", bs, st, refStats)
		}
		if sink.Total != refSink.Total || sink.ByClass != refSink.ByClass {
			t.Fatalf("batch=%d events %d/%v, per-event %d/%v",
				bs, sink.Total, sink.ByClass, refSink.Total, refSink.ByClass)
		}
	}
}

// TestBatchOneIsPerEventOrder pins what the reference legs of the
// batch-invariance checks rely on: with EventBatch 1 every delivered
// slice holds exactly one event, one flush happens per retired
// instruction, and the events arrive in retirement order (each one's PC
// is its predecessor's resolved next PC).
func TestBatchOneIsPerEventOrder(t *testing.T) {
	m := New(Config{MemSpan: 64 << 20, EventBatch: 1})
	m.Load(fibProgram())
	var evs []Event
	m.RunToCompletion(0, BatchFunc(func(b []Event) {
		if len(b) != 1 {
			t.Fatalf("flush %d delivered %d events, want 1", len(evs), len(b))
		}
		evs = append(evs, b[0])
	}))
	n := m.Stats().Instructions
	if n == 0 || uint64(len(evs)) != n || m.BatchFlushes() != n {
		t.Fatalf("%d instructions, %d events, %d flushes: want all equal and non-zero", n, len(evs), m.BatchFlushes())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].PC != evs[i-1].NextPC {
			t.Fatalf("event %d at pc %#x follows an event whose next pc is %#x", i, evs[i].PC, evs[i-1].NextPC)
		}
	}
}

// TestEventOrderPreserved checks batched delivery yields the exact
// per-event sequence: same events, same order, across a batch capacity
// that never divides the program length evenly.
func TestEventOrderPreserved(t *testing.T) {
	var ref []Event
	a := New(Config{MemSpan: 64 << 20, EventBatch: 1})
	a.Load(fibProgram())
	a.RunToCompletion(0, perEvent(func(e *Event) { ref = append(ref, *e) }))

	var got []Event
	b := New(Config{MemSpan: 64 << 20, EventBatch: 7})
	b.Load(fibProgram())
	b.RunToCompletion(0, BatchFunc(func(evs []Event) { got = append(got, evs...) }))

	if len(got) != len(ref) {
		t.Fatalf("event count %d != %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("event %d diverges:\nbatched   %+v\nper-event %+v", i, got[i], ref[i])
		}
	}
}

// TestEventModeZeroAlloc verifies steady-state event mode allocates
// nothing per instruction: the scratch batch buffer is allocated once
// on the first Run and reused for the life of the machine.
func TestEventModeZeroAlloc(t *testing.T) {
	m := buildAndLoad(t, func(b *asm.Builder) {
		b.Movi(1, 0)
		b.Label("loop")
		b.I(isa.OpAddi, 1, 1, 1)
		b.Br(isa.OpBeq, 0, 0, "loop") // infinite; Run budget bounds it
	})
	var sink Sink = BatchFunc(func([]Event) {})
	m.Run(10_000, sink) // warm up: translate, chain, allocate the batch
	if avg := testing.AllocsPerRun(10, func() {
		m.Run(50_000, sink)
	}); avg != 0 {
		t.Fatalf("steady-state event mode allocates %.1f objects per Run, want 0", avg)
	}
}

// TestNewMachineAllocBudget bounds what one machine costs before its
// guest runs: with the default 1 GiB span, the page directory (one
// pointer per 2 MiB region), the code-page bitset and the TLB, not a
// table entry per guest page. Every cell of an experiment builds fresh
// machines, so this is a per-cell cost.
func TestNewMachineAllocBudget(t *testing.T) {
	const runs, budget = 8, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		New(Config{})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("vm.New allocates %d bytes per machine, budget %d", per, budget)
	}
}

// TestCrossPageInvalidationCompacts is the pageBlk dead-entry
// regression test: a block spanning two pages, invalidated via one
// page, must not leave a dead pointer in the other page's list.
func TestCrossPageInvalidationCompacts(t *testing.T) {
	m := buildAndLoad(t, func(b *asm.Builder) { b.Halt() })

	// A block translated 4 bytes before a page boundary holds exactly
	// one instruction (decode stops at the page end) whose 8 bytes
	// straddle the boundary. Zero-filled memory decodes as NOP, so the
	// translation is legal without loading anything there.
	const pageEnd = uint64(0x40_0000)
	b := m.translate(pageEnd - 4)
	firstVPN := (pageEnd - 4) >> mem.PageShift
	secondVPN := pageEnd >> mem.PageShift
	if firstVPN == secondVPN || len(b.insts) != 1 {
		t.Fatalf("test block does not straddle pages: vpns %d,%d len=%d",
			firstVPN, secondVPN, len(b.insts))
	}
	// A second, single-page block keeps the neighbour page's list alive
	// so compaction (not wholesale deletion) is what's exercised.
	m.translate(pageEnd)
	if got := len(m.pageBlk[firstVPN]); got != 1 {
		t.Fatalf("first page list length %d, want 1", got)
	}
	if got := len(m.pageBlk[secondVPN]); got != 2 {
		t.Fatalf("second page list length %d, want 2", got)
	}

	m.invalidatePage(firstVPN)

	if !b.dead {
		t.Fatal("straddling block not invalidated")
	}
	if _, ok := m.pageBlk[firstVPN]; ok {
		t.Fatal("invalidated page's list not dropped")
	}
	if got := len(m.pageBlk[secondVPN]); got != 1 {
		t.Fatalf("neighbour page kept %d entries, want 1 (dead entry leaked)", got)
	}
	for _, nb := range m.pageBlk[secondVPN] {
		if nb.dead {
			t.Fatal("dead block left in neighbour page's list")
		}
	}

	// Invalidate the survivor too: the neighbour list must now vanish
	// and the page must stop being scanned as a code page.
	m.invalidatePage(secondVPN)
	if _, ok := m.pageBlk[secondVPN]; ok {
		t.Fatal("fully-dead page's list not dropped")
	}
	if m.codePages[secondVPN/64]&(1<<(secondVPN%64)) != 0 {
		t.Fatal("fully-dead page still flagged as code page")
	}
}
