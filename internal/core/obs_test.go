package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// drive exercises one session through a fast→timed→fast→funcwarm
// schedule and returns the executed count.
func drive(s *Session) uint64 {
	L := s.IntervalLen()
	s.RunFast(L)
	s.RunTimed(L)
	s.RunFast(L)
	s.RunFuncWarm(L)
	return s.Executed()
}

func TestSessionObsRecordsAndIsInert(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := Options{Scale: 200_000}
	plain := NewSession(spec, plainOpts)
	wantEx := drive(plain)
	wantStats := plain.Machine().Stats()

	reg := obs.NewRegistry()
	tr := obs.NewTransitionTrace(16)
	observed := NewSession(spec, Options{Scale: 200_000, Obs: reg, Trace: tr})
	gotEx := drive(observed)
	gotStats := observed.Machine().Stats()

	if gotEx != wantEx {
		t.Fatalf("executed with obs = %d, without = %d", gotEx, wantEx)
	}
	if gotStats != wantStats {
		t.Fatalf("vm stats diverged with obs:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if observed.Meter().Units() != plain.Meter().Units() {
		t.Fatalf("meter units diverged: %v vs %v",
			observed.Meter().Units(), plain.Meter().Units())
	}

	// Non-vacuity: the schedule has fast→timing→fast→funcwarm, so at
	// least three transitions (plus the initial one) must be recorded.
	if tr.Total() < 4 {
		t.Fatalf("transitions recorded = %d, want >= 4", tr.Total())
	}
	if got := reg.Counter("core_mode_transitions_total", "from", "fast", "to", "timing").Value(); got == 0 {
		t.Fatal("no fast→timing transition counted")
	}
	fast := reg.Counter("vm_instructions_total", "mode", "fast").Value()
	timingN := reg.Counter("vm_instructions_total", "mode", "timing").Value()
	if fast == 0 || timingN == 0 {
		t.Fatalf("per-mode instruction counters: fast=%d timing=%d", fast, timingN)
	}
	if fast+timingN > gotEx {
		t.Fatalf("counted more instructions (%d) than executed (%d)", fast+timingN, gotEx)
	}
	if reg.Counter("hostcost_instructions_total", "mode", "timing").Value() == 0 {
		t.Fatal("hostcost mirror not attached")
	}
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
}

func TestSessionContextCancellation(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession(spec, Options{Scale: 200_000, Context: ctx})
	L := s.IntervalLen()
	if ex := s.RunFast(L); ex != L {
		t.Fatalf("pre-cancel RunFast = %d, want %d", ex, L)
	}
	if s.Interrupted() != nil {
		t.Fatal("Interrupted before cancel")
	}
	cancel()
	if ex := s.RunFast(L); ex != 0 {
		t.Fatalf("post-cancel RunFast = %d, want 0", ex)
	}
	if ipc, ex := s.RunTimed(L); ipc != 0 || ex != 0 {
		t.Fatalf("post-cancel RunTimed = (%v, %d), want (0, 0)", ipc, ex)
	}
	if s.FastForwardVia(s.Total()) != 0 {
		t.Fatal("post-cancel FastForwardVia advanced")
	}
	if s.Interrupted() == nil {
		t.Fatal("Interrupted not reported after cancel")
	}
}
