package timing

import (
	"testing"

	"repro/internal/vm"
)

// Properties the model satisfies by construction, checked on the
// recorded streams of diff_test.go rather than on synthetic ones.

// TestRetireWidthAndMonotonicCycles: between any two markers at most
// Width instructions retire per elapsed cycle, plus the up to Width-1
// that share the cycle the later marker stands in. That is the exact
// bound; over an interval of at least Width cycles the recorded streams
// never carry that remainder, so there interval IPC itself stays within
// Width. Marker().Cycles never decreases from one batch to the next
// while Instrs advances by exactly the batch length.
func TestRetireWidthAndMonotonicCycles(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), oddConfig()} {
		w := uint64(cfg.Width)
		for _, name := range streamNames {
			evs := streams()[name]
			c := NewCore(cfg)
			marks := []Marker{c.Marker()}
			at := 0
			for _, s := range splitSizes(len(evs), 21) {
				c.OnEvents(evs[at : at+s])
				at += s
				m, prev := c.Marker(), marks[len(marks)-1]
				if m.Cycles < prev.Cycles {
					t.Fatalf("%s: cycles went backwards across a batch: %+v -> %+v", name, prev, m)
				}
				if m.Instrs != prev.Instrs+uint64(s) {
					t.Fatalf("%s: batch of %d moved Instrs %d -> %d", name, s, prev.Instrs, m.Instrs)
				}
				marks = append(marks, m)
			}
			for i, from := range marks {
				for _, to := range marks[i+1:] {
					di, dc := to.Instrs-from.Instrs, to.Cycles-from.Cycles
					if di > w*dc+w-1 {
						t.Fatalf("%s: %d instructions retired in %d cycles at width %d (%+v -> %+v)", name, di, dc, w, from, to)
					}
					if dc >= w && IPC(from, to) > float64(w) {
						t.Fatalf("%s: interval IPC %.3f exceeds width %d (%+v -> %+v)", name, IPC(from, to), w, from, to)
					}
				}
			}
		}
	}
}

// TestWarmingKeepsTheClock: warm batches update caches, TLBs and the
// predictor but never move the marker, whatever ran before.
func TestWarmingKeepsTheClock(t *testing.T) {
	evs := streams()["mcf"]
	c := NewCore(DefaultConfig())
	warm := c.WarmSink()
	c.OnEvents(evs[:5000])
	before, snap := c.Marker(), c.Snapshot()
	warm.OnEvents(evs[5000:20000])
	if c.Marker() != before {
		t.Fatalf("warming moved the marker: %+v -> %+v", before, c.Marker())
	}
	after := c.Snapshot()
	if after.L1D == snap.L1D || after.PredDigest == snap.PredDigest || after.DTLBDigest == snap.DTLBDigest {
		t.Fatal("warming left the caches, TLBs or predictor untouched")
	}
}

// TestOnEventsDoesNotAllocate: both batch bodies run without touching
// the heap.
func TestOnEventsDoesNotAllocate(t *testing.T) {
	evs := streams()["gzip"]
	c := NewCore(DefaultConfig())
	warm := NewCore(DefaultConfig()).WarmSink()
	at := 0
	next := func() []vm.Event {
		if at+256 > len(evs) {
			at = 0
		}
		at += 256
		return evs[at-256 : at]
	}
	if n := testing.AllocsPerRun(50, func() { c.OnEvents(next()) }); n != 0 {
		t.Errorf("Core.OnEvents allocates: %v allocs per batch", n)
	}
	if n := testing.AllocsPerRun(50, func() { warm.OnEvents(next()) }); n != 0 {
		t.Errorf("warmSink.OnEvents allocates: %v allocs per batch", n)
	}
}
