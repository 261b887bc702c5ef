package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestZigZag(t *testing.T) {
	f := func(v int64) bool { return unzig(zig(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip records a real benchmark's event stream and replays it,
// requiring field-for-field equality.
func TestRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("gzip")
	img, _ := workload.BuildScaled(spec, 500_000)
	m := vm.New(vm.Config{})
	m.Load(img)

	var recorded []vm.Event
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(50_000, vm.BatchFunc(func(evs []vm.Event) {
		w.OnEvents(evs)
		recorded = append(recorded, evs...)
	}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recorded)) {
		t.Fatalf("writer count %d != %d", w.Count(), len(recorded))
	}
	t.Logf("trace: %d events in %d bytes (%.2f B/event)",
		w.Count(), buf.Len(), float64(buf.Len())/float64(w.Count()))

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev vm.Event
	for i := range recorded {
		if err := r.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != recorded[i] {
			t.Fatalf("event %d differs:\nwant %+v\ngot  %+v", i, recorded[i], ev)
		}
	}
	if err := r.Next(&ev); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestReplayEquivalentTiming checks the paper's trace-driven property:
// replaying a trace through the timing model produces the identical
// cycle count as execution-driven simulation.
func TestReplayEquivalentTiming(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	img, _ := workload.BuildScaled(spec, 500_000)

	// Execution-driven.
	m1 := vm.New(vm.Config{})
	m1.Load(img)
	c1 := timing.NewCore(timing.DefaultConfig())
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	m1.Run(40_000, vm.BatchFunc(func(evs []vm.Event) {
		c1.OnEvents(evs)
		w.OnEvents(evs)
	}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Trace-driven.
	c2 := timing.NewCore(timing.DefaultConfig())
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.Replay(c2)
	if err != nil {
		t.Fatal(err)
	}
	if n != c1.Marker().Instrs {
		t.Fatalf("replayed %d events, executed %d", n, c1.Marker().Instrs)
	}
	if c1.Marker() != c2.Marker() {
		t.Fatalf("trace-driven timing diverged: %+v vs %+v", c1.Marker(), c2.Marker())
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.OnEvents([]vm.Event{{PC: 0x1000, NextPC: 0x1008, Op: isa.OpAdd, Class: isa.ClassALU}})
	w.Close()
	full := buf.Bytes()
	for cut := len(Magic) + 1; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		var e vm.Event
		if err := r.Next(&e); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestInvalidOpcodeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{flagSequential, 0xfe, 0, 0, 0, 0}) // bad opcode
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev vm.Event
	if err := r.Next(&ev); err == nil {
		t.Fatal("invalid opcode must be rejected")
	}
}

// TestReplayDeliversUpToTheError: Replay hands events over in batches,
// and a trace torn in the middle of a batch still delivers every whole
// event before the error.
func TestReplayDeliversUpToTheError(t *testing.T) {
	const events = 300 // more than one batch
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < events; i++ {
		pc := uint64(0x1000 + 8*i)
		w.OnEvents([]vm.Event{{PC: pc, NextPC: pc + 8, Op: isa.OpAdd, Class: isa.ClassALU}})
	}
	w.Close()
	torn := buf.Bytes()[:buf.Len()-1]

	var delivered, batches uint64
	r, err := NewReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.Replay(vm.BatchFunc(func(evs []vm.Event) {
		delivered += uint64(len(evs))
		batches++
	}))
	if err == nil || n != events-1 {
		t.Fatalf("replayed %d events with error %v, want %d and a truncation error", n, err, events-1)
	}
	if delivered != events-1 || batches < 2 {
		t.Fatalf("delivered %d events in %d batches, want %d in at least 2", delivered, batches, events-1)
	}
}
