package core

import (
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ckptSession builds a session for the named benchmark with the given
// store attached (nil = checkpointing off).
func ckptSession(t *testing.T, store *ckpt.Store) *Session {
	t.Helper()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(spec, Options{Scale: 200_000, Ckpt: store})
}

// canonicalRun drives a session through the canonical partitioning a
// real policy uses — fast intervals with a timed interval every fourth —
// and returns the final VM stats plus the accumulated cost report.
func canonicalRun(s *Session) (interface{}, hostcost.Report) {
	L := s.IntervalLen()
	for i := 0; !s.Done(); i++ {
		if i%4 == 3 {
			s.RunTimed(L)
		} else {
			s.RunFast(L)
		}
	}
	return s.Machine().Stats(), s.Meter().Report(s.Scale())
}

// TestSessionCheckpointEquivalence is the session-level half of the
// cache-equivalence guarantee: identical results with the store off,
// fresh, or pre-warmed — and the warmed run must actually hit.
func TestSessionCheckpointEquivalence(t *testing.T) {
	coldStats, coldCost := canonicalRun(ckptSession(t, nil))

	store := ckpt.NewMemory()
	freshStats, freshCost := canonicalRun(ckptSession(t, store))
	if store.Stats().Puts == 0 {
		t.Fatal("store-attached run deposited nothing")
	}
	if freshStats != coldStats {
		t.Fatalf("fresh-store run diverged:\n got %+v\nwant %+v", freshStats, coldStats)
	}
	if freshCost != coldCost {
		t.Fatalf("fresh-store cost diverged:\n got %+v\nwant %+v", freshCost, coldCost)
	}

	warmStats, warmCost := canonicalRun(ckptSession(t, store))
	if hits := store.Stats().Hits; hits == 0 {
		t.Fatal("warmed run never hit the store (vacuous equivalence)")
	}
	if warmStats != coldStats {
		t.Fatalf("warm-store run diverged:\n got %+v\nwant %+v", warmStats, coldStats)
	}
	if warmCost != coldCost {
		t.Fatalf("warm-store cost diverged:\n got %+v\nwant %+v", warmCost, coldCost)
	}
}

// TestSessionNonCanonicalAbstains pins the sharing discipline: after one
// unaligned Run call a session neither deposits nor consumes, so
// policies with coarse or irregular partitioning run exactly as they
// would without a store.
func TestSessionNonCanonicalAbstains(t *testing.T) {
	store := ckpt.NewMemory()
	s := ckptSession(t, store)
	s.RunFast(s.IntervalLen() / 2) // unaligned: off the canonical path
	for !s.Done() {
		if s.RunFast(s.IntervalLen()) == 0 {
			break
		}
	}
	if st := store.Stats(); st.Puts != 0 || st.Hits != 0 {
		t.Fatalf("non-canonical session touched the store: %+v", st)
	}
}

// TestUnrestorableCheckpointDegrades stores, under the session's own
// key, a snapshot that decodes but cannot restore (its memory span is
// not the session's) and reaches it by a fast hit and by dispatch. The
// session must end exactly where a store-off session does, charged the
// same, and the bad snapshot must be gone from the store.
func TestUnrestorableCheckpointDegrades(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	open := func(store *ckpt.Store) *Session {
		return NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1})
	}
	bad := vm.New(vm.Config{MemSpan: 1 << 31}).Snapshot()
	for _, tc := range []struct {
		name  string
		drive func(s *Session)
	}{
		{"RunFast", func(s *Session) {
			s.RunFast(s.IntervalLen())
			s.RunFast(s.IntervalLen()) // the bad checkpoint's interval
			s.RunTimed(s.IntervalLen())
		}},
		// In base-interval steps, so the store-off run is partitioned
		// as the store's walk is.
		{"FastForwardVia", func(s *Session) {
			s.FastForwardVia(s.IntervalLen())
			s.FastForwardVia(2 * s.IntervalLen())
			s.RunTimed(s.IntervalLen())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := ckpt.NewMemory()
			s := open(store)
			open(store).FastForwardVia(4 * s.IntervalLen())
			k := s.ckptKey(2 * s.IntervalLen())
			store.Discard(k)
			store.Put(k, bad)

			tc.drive(s)
			ref := open(nil)
			tc.drive(ref)
			if got, want := stateOf(s.Machine()), stateOf(ref.Machine()); got != want {
				t.Errorf("machine diverged:\n got %+v\nwant %+v", got, want)
			}
			if got, want := s.Meter().Report(s.Scale()), ref.Meter().Report(ref.Scale()); got != want {
				t.Errorf("charge diverged:\n got %+v\nwant %+v", got, want)
			}
			if snap, ok := store.Lookup(k); ok && snap == bad {
				t.Error("the unrestorable snapshot is still in the store")
			}
		})
	}
}

// TestFastHitsRestoreOnce pins what a fast hit costs: on a primed
// stride-1 store, back-to-back hits move the session alone, and the
// burst after them restores the machine once.
func TestFastHitsRestoreOnce(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const hits = 5
	store, reg := ckpt.NewMemory(), obs.NewRegistry()
	s := NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1, Obs: reg})
	L := s.IntervalLen()
	NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1}).FastForwardVia(hits * L)
	for i := 0; i < hits; i++ {
		s.RunFast(L)
	}
	s.RunTimed(L)
	if got := reg.Counter("ckpt_restores_total").Value(); got != hits {
		t.Errorf("ckpt_restores_total = %d, want %d hits", got, hits)
	}
	if got := reg.Histogram("ckpt_restore_seconds", obs.TimeBuckets).Count(); got != 1 {
		t.Errorf("%d timed restores for %d back-to-back hits, want 1", got, hits)
	}
}

// TestFastForwardViaMatchesFree proves the checkpoint dispatch path is
// invisible to results: fast-forwarding through a store (depositing on
// a stride grid on the way, then resuming from it) leaves the session
// at the same architectural state and charges nothing, exactly like a
// store-less session's single free run.
func TestFastForwardViaMatchesFree(t *testing.T) {
	ref := ckptSession(t, nil)
	target := 10 * ref.IntervalLen()
	ref.FastForwardVia(target)
	refUnits := ref.Meter().Report(ref.Scale()).Units

	store := ckpt.NewMemory()
	gridded := func() *Session {
		return NewSession(ref.Spec(), Options{Scale: 200_000, Ckpt: store, CkptStride: 2})
	}
	a := gridded()
	if ex := a.FastForwardVia(target); ex != target {
		t.Fatalf("fast-forward advanced %d, want %d", ex, target)
	}
	if store.Stats().Puts == 0 {
		t.Fatal("fast-forward walk deposited nothing")
	}

	b := gridded()
	if ex := b.FastForwardVia(target); ex != target {
		t.Fatalf("warm fast-forward advanced %d, want %d", ex, target)
	}
	if store.Stats().Hits == 0 {
		t.Fatal("warm fast-forward did not resume from the store")
	}

	for _, s := range []*Session{a, b} {
		if s.Machine().PC() != ref.Machine().PC() || s.Machine().Reg(5) != ref.Machine().Reg(5) {
			t.Fatal("fast-forward diverged from free run architecturally")
		}
		if got := s.Meter().Report(s.Scale()).Units; got != refUnits {
			t.Fatalf("fast-forward charged %v units, free run %v", got, refUnits)
		}
	}
	// The warm session restored state bit-exactly, stats included.
	if a.Machine().Stats() != b.Machine().Stats() {
		t.Fatalf("warm resume stats diverged:\n got %+v\nwant %+v",
			b.Machine().Stats(), a.Machine().Stats())
	}
}

// TestDispatchRestoresCanonical: a dispatch from a session that stands
// inside an interval restores the snapshot below its target and
// deposits on its walk — a record at every boundary, a snapshot on the
// stride grid — ending where a store-off dispatch from the start does.
func TestDispatchRestoresCanonical(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory()
	open := func(store *ckpt.Store) *Session {
		return NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 2})
	}
	s := open(store)
	L := s.IntervalLen()
	open(store).FastForwardVia(2 * L) // a snapshot at 2L
	s.RunFuncWarm(L / 2)
	puts, hits := store.Stats().Puts, store.Stats().Hits
	if ex := s.FastForwardVia(5 * L); s.Executed() != 5*L {
		t.Fatalf("dispatch advanced %d to %d, want to %d", ex, s.Executed(), 5*L)
	}
	if got := store.Stats().Hits - hits; got != 1 {
		t.Errorf("the dispatch restored %d snapshots, want the one at 2L", got)
	}
	if got := store.Stats().Puts - puts; got != 1 || !store.Contains(s.ckptKey(4*L)) {
		t.Errorf("the walk 2L→5L deposited %d snapshots, want the one at 4L", got)
	}
	for i := uint64(3); i <= 5; i++ {
		if _, ok := store.LookupRecord(s.ckptKey(i*L), L); !ok {
			t.Errorf("the walk left no record at %d·L", i)
		}
	}
	ref := open(nil)
	ref.FastForwardVia(5 * L)
	if got, want := stateOf(s.Machine()), stateOf(ref.Machine()); got != want {
		t.Errorf("machine after the dispatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestGridSnapshotCarriesARecord: on an explicit stride grid a timed
// burst that ends on the grid leaves a trajectory record beside its
// snapshot, so a second session skips that interval on the record
// alone, with no snapshot lookup and without moving its machine.
func TestGridSnapshotCarriesARecord(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory()
	open := func() *Session {
		return NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1})
	}
	a := open()
	L := a.IntervalLen()
	a.RunTimed(L)
	if !store.Contains(a.ckptKey(L)) {
		t.Fatal("the timed burst left no grid snapshot (vacuous)")
	}
	before := store.Stats()
	b := open()
	if ex := b.RunFast(L); ex != L {
		t.Fatalf("RunFast ran %d, want %d", ex, L)
	}
	after := store.Stats()
	if after.Skips != before.Skips+1 || after.Hits != before.Hits {
		t.Errorf("the skip took %d records and %d snapshots, want 1 and 0", after.Skips-before.Skips, after.Hits-before.Hits)
	}
	if at := b.machine.Stats().Instructions; at != 0 {
		t.Errorf("the skip moved the machine to %d", at)
	}
}

// TestColdPrimingCountsNoMiss: priming a cold stride-1 store, as
// check.CheckpointEquivalence does, finds no snapshot below the target
// to restore, and asking the store for one must not count a lookup miss
// (the stride probe it replaced made one per interval of the budget:
// 350 on gzip at this scale). An explicit stride keeps its grid: the
// priming leaves one snapshot per interval it runs through.
func TestColdPrimingCountsNoMiss(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory()
	s := NewSession(spec, Options{Scale: 50_000, Ckpt: store, CkptStride: 1})
	s.FastForwardVia(^uint64(0))
	if st, want := store.Stats(), s.Executed()/s.IntervalLen(); st.Misses != 0 || st.Puts != want {
		t.Errorf("cold stride-1 priming made %d lookup misses and %d puts, want 0 misses and %d puts", st.Misses, st.Puts, want)
	}
}

// TestSkippedIntervalsCatchUp pins the skip protocol. Session A runs a
// range of the trajectory; session B then makes the same range's
// RunFast calls on A's store and must skip every one: its machine does
// not move, and at every boundary its Stat, Done and Executed equal a
// store-off session's. B's next burst catches the machine up from the
// snapshot below it on a stride-10 grid and must leave everything as
// the store-off run does. "timed" ends the range between two snapshots and times the next
// interval; "halt" runs A to the guest's halt, mid-interval, and walks
// B there.
func TestSkippedIntervalsCatchUp(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	open := func(store *ckpt.Store) *Session {
		return NewSession(spec, Options{Scale: 50_000, Ckpt: store, CkptStride: 10})
	}
	metrics := []vm.Metric{vm.MetricCPU, vm.MetricEXC, vm.MetricIO}
	// step makes one RunFast(L) call on b and on the store-off ref and
	// compares what a policy reads afterwards.
	step := func(t *testing.T, b, ref *Session) {
		t.Helper()
		L := ref.IntervalLen()
		if got, want := b.RunFast(L), ref.RunFast(L); got != want {
			t.Fatalf("RunFast ran %d, store-off %d", got, want)
		}
		for _, m := range metrics {
			if got, want := b.Stat(m), ref.Stat(m); got != want {
				t.Errorf("at %d: Stat(%v) = %d, store-off %d", ref.Executed(), m, got, want)
			}
		}
		if b.Executed() != ref.Executed() || b.Done() != ref.Done() {
			t.Fatalf("at %d: Executed %d, Done %v; store-off Done %v", ref.Executed(), b.Executed(), b.Done(), ref.Done())
		}
	}
	same := func(t *testing.T, b, ref *Session) {
		t.Helper()
		if got, want := stateOf(b.Machine()), stateOf(ref.Machine()); got != want {
			t.Errorf("machine after the catch-up:\n got %+v\nwant %+v", got, want)
		}
		if got, want := b.Meter().Report(b.Scale()), ref.Meter().Report(ref.Scale()); got != want {
			t.Errorf("charge diverged:\n got %+v\nwant %+v", got, want)
		}
	}

	t.Run("timed", func(t *testing.T) {
		store := ckpt.NewMemory()
		b, ref := open(store), open(nil)
		L, stride := b.IntervalLen(), b.ckptEvery/b.IntervalLen()
		k := 2*stride + stride/2
		open(store).FastForwardVia(k * L)
		for i := uint64(0); i < k; i++ {
			step(t, b, ref)
			if at := b.machine.Stats().Instructions; at != 0 {
				t.Fatalf("skip %d moved the machine to %d", i+1, at)
			}
		}
		if got := store.Stats().Skips; got != k {
			t.Errorf("store served %d records, want %d", got, k)
		}
		ipc, ex := b.RunTimed(L)
		refIPC, refEx := ref.RunTimed(L)
		if math.Float64bits(ipc) != math.Float64bits(refIPC) || ex != refEx {
			t.Errorf("RunTimed = (%v, %d), store-off (%v, %d)", ipc, ex, refIPC, refEx)
		}
		if got, want := b.Core().Snapshot(), ref.Core().Snapshot(); got != want {
			t.Errorf("timing core diverged:\n got %+v\nwant %+v", got, want)
		}
		same(t, b, ref)
	})

	t.Run("halt", func(t *testing.T) {
		store := ckpt.NewMemory()
		b, ref := open(store), open(nil)
		a := open(store)
		a.FastForwardVia(a.Total())
		if !a.machine.Halted() || a.Executed()%a.IntervalLen() == 0 {
			t.Fatalf("A stopped at %d, halted %v: want a halt inside an interval", a.Executed(), a.machine.Halted())
		}
		for !ref.Done() {
			step(t, b, ref)
		}
		if got, want := store.Stats().Skips, a.Executed()/a.IntervalLen(); got != want {
			t.Errorf("store served %d records, want one per full interval, %d", got, want)
		}
		same(t, b, ref)
	})
}
