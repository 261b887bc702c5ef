package timing

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/vm"
)

// TestSnapshotComparable: cores fed identical event streams have equal
// Snapshots; one extra event makes them differ; and a shared L2 shows
// up in both cores' digests.
func TestSnapshotComparable(t *testing.T) {
	t.Parallel()
	shared := cache.New(DefaultConfig().L2)
	mk := func() *Core {
		cfg := DefaultConfig()
		cfg.SharedL2 = shared
		return NewCore(cfg)
	}
	a, b := mk(), mk()
	if a.Snapshot() != b.Snapshot() {
		t.Fatal("fresh identical cores have different snapshots")
	}
	evs := []vm.Event{
		{PC: 0x1000, NextPC: 0x1008},
		{PC: 0x1008, NextPC: 0x1010, MemAddr: 0x8000},
	}
	a.OnEvents(evs)
	b.OnEvents(evs)
	// The cores shared the L2, so the second delivery saw a warmer
	// shared cache; the private levels and cycle accounting must still
	// agree field-by-field except through the shared state.
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Instrs != sb.Instrs || sa.L1I != sb.L1I {
		t.Fatalf("identical streams diverged in private state: %+v vs %+v", sa, sb)
	}
	if sa.L2Digest != sb.L2Digest {
		t.Fatal("shared-L2 digest differs between cores sharing one cache")
	}
	a.OnEvents([]vm.Event{{PC: 0x2000, NextPC: 0x2008}})
	if a.Snapshot() == sb {
		t.Fatal("snapshot blind to an extra event")
	}
}
