package core_test

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/vm"
	"repro/internal/workload"
)

// gzipAt builds a session on gzip at scale 50 000, 350 base intervals.
func gzipAt(t *testing.T, opts core.Options) *core.Session {
	t.Helper()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opts.Scale = 50_000
	return core.NewSession(spec, opts)
}

// departures lists where a traced session left fast mode at an interval
// boundary past 0.
func departures(t *testing.T, tr *obs.TransitionTrace, L uint64) []uint64 {
	t.Helper()
	trs := tr.Snapshot()
	if uint64(len(trs)) != tr.Total() {
		t.Fatalf("the trace kept %d of %d transitions", len(trs), tr.Total())
	}
	var at []uint64
	for _, x := range trs {
		if x.From == hostcost.Fast.String() && x.To != x.From && x.Instr != 0 && x.Instr%L == 0 {
			at = append(at, x.Instr)
		}
	}
	return at
}

// runDynamic runs Algorithm 1 (CPU, 300 %, 1M, ∞) on s.
func runDynamic(t *testing.T, s *core.Session) sampling.Result {
	t.Helper()
	res, err := sampling.NewDynamic(vm.MetricCPU, 300, 1, 0).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDynamicDepositsAtDepartures: on a cold store with no stride grid,
// a Dynamic session snapshots exactly where it leaves fast mode — at
// each boundary where a warm-up follows the settle interval — once per
// departure, and nowhere else.
func TestDynamicDepositsAtDepartures(t *testing.T) {
	t.Parallel()
	store, tr := ckpt.NewMemory(), obs.NewTransitionTrace(1<<16)
	s := gzipAt(t, core.Options{Ckpt: store, Trace: tr})
	runDynamic(t, s)
	at := departures(t, tr, s.IntervalLen())
	if len(at) == 0 {
		t.Fatal("the policy never left fast mode (vacuous)")
	}
	if got := store.Stats().Puts; got != uint64(len(at)) {
		t.Errorf("%d snapshots for %d departures", got, len(at))
	}
	for _, x := range at {
		if !store.Contains(s.CkptKey(x)) {
			t.Errorf("no snapshot at the departure at %d", x)
		}
	}
}

// TestCoincidingDepartureRestoresAtTarget: a second Dynamic session on
// the first one's store skips every fast interval the first ran, and
// at each departure, which coincides with one of the first session's,
// restores exactly there and walks nothing. The only walk is the tail:
// the fast interval the guest halts in has no record, so the session
// catches up from the end of its last timed interval to the boundary
// before the halt. It deposits nothing and ends with the same Result.
func TestCoincidingDepartureRestoresAtTarget(t *testing.T) {
	t.Parallel()
	store, tr := ckpt.NewMemory(), obs.NewTransitionTrace(1<<16)
	a := gzipAt(t, core.Options{Ckpt: store, Trace: tr})
	want := runDynamic(t, a)
	L := a.IntervalLen()
	at := departures(t, tr, L)
	lastTimed := uint64(0) // where the last timed interval ended
	for _, x := range tr.Snapshot() {
		if x.From == hostcost.Timing.String() {
			lastTimed = x.Instr
		}
	}
	puts, reg := store.Stats().Puts, obs.NewRegistry()
	b := gzipAt(t, core.Options{Ckpt: store, Obs: reg})
	got := runDynamic(t, b)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second run's Result differs:\n got %+v\nwant %+v", got, want)
	}
	if p := store.Stats().Puts; p != puts {
		t.Errorf("second run deposited %d snapshots, want 0", p-puts)
	}
	tailFrom, tailTo := lastTimed, a.Executed()/L*L
	if a.Executed()%L == 0 || tailTo <= tailFrom {
		t.Fatalf("the guest halts at %d, after the last timed interval at %d: no tail to catch up", a.Executed(), lastTimed)
	}
	if n := reg.Counter("ckpt_catchups_total").Value(); n != uint64(len(at))+1 {
		t.Errorf("%d catch-ups, want one per departure (%d) and the tail", n, len(at))
	}
	if n := reg.Histogram("ckpt_restore_seconds", obs.TimeBuckets).Count(); n != uint64(len(at)) {
		t.Errorf("%d restores, want one per departure (%d)", n, len(at))
	}
	if n := reg.Counter("ckpt_catchup_instructions_total").Value(); n != tailTo-tailFrom {
		t.Errorf("catch-ups walked %d instructions, want only the tail's %d", n, tailTo-tailFrom)
	}
}

// TestFullTimingDepositsNothing: full timing never leaves fast mode
// after a fast interval, so on a store with no stride grid it deposits
// no snapshot.
func TestFullTimingDepositsNothing(t *testing.T) {
	t.Parallel()
	store := ckpt.NewMemory()
	if _, err := (sampling.FullTiming{}).Run(gzipAt(t, core.Options{Ckpt: store})); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Errorf("full timing deposited %d snapshots, want 0", st.Puts)
	}
}
