package faults

import (
	"errors"
	"sync"
	"testing"
)

// TestDeterminismAcrossInterleavings drives two injectors with the same
// seed and plan, one sequentially and one from racing goroutines, and
// asserts every site draws the same verdict: decisions are functions of
// (seed, kind, key, seq), never of global visit order.
func TestDeterminismAcrossInterleavings(t *testing.T) {
	t.Parallel()
	plan := Plan{NetPut: 0.5, RunFaultRate: 0.5, RunFaultAttempts: 2}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const opsPerKey = 16

	sequential := New(42, plan)
	want := make(map[string][]bool)
	for _, k := range keys {
		for i := 0; i < opsPerKey; i++ {
			want[k] = append(want[k], sequential.NetFault(k) != nil)
		}
	}

	racing := New(42, plan)
	got := make(map[string][]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, k := range keys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts := make([]bool, opsPerKey)
			for i := range verdicts {
				verdicts[i] = racing.NetFault(k) != nil
			}
			mu.Lock()
			got[k] = verdicts
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, k := range keys {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("key %q op %d: verdict %v under racing, %v sequential", k, i, got[k][i], want[k][i])
			}
		}
	}
}

func TestRatesZeroAndOne(t *testing.T) {
	t.Parallel()
	never := New(1, Plan{})
	always := New(1, Plan{NetPut: 1, RunFaultRate: 1, RunFaultAttempts: 1})
	for i := 0; i < 100; i++ {
		if err := never.NetFault("k"); err != nil {
			t.Fatal("zero-rate plan fired a put")
		}
		if err := always.NetFault("k"); !errors.Is(err, ErrInjected) {
			t.Fatalf("rate-1 plan skipped a put: %v", err)
		}
	}
	if got := never.RunFault("b", "p", 0); got != "" {
		t.Fatalf("zero-rate RunFault = %q", got)
	}
	if got := always.RunFault("b", "p", 0); got == "" {
		t.Fatal("rate-1 RunFault fired nothing")
	}
}

// TestRunFaultBounded asserts attempts at or past RunFaultAttempts never
// fault — the property that makes every plan healable by bounded retry.
func TestRunFaultBounded(t *testing.T) {
	t.Parallel()
	in := New(9, Plan{RunFaultRate: 1, RunFaultAttempts: 2})
	for i := 0; i < 50; i++ {
		bench := string(rune('a' + i%26))
		if in.RunFault(bench, "policy", 2) != "" || in.RunFault(bench, "policy", 7) != "" {
			t.Fatal("attempt >= RunFaultAttempts faulted")
		}
		if in.RunFault(bench, "policy", 0) == "" {
			t.Fatal("attempt 0 at rate 1 did not fault")
		}
	}
}

// TestRunFaultKindsCovered checks all three run-fault kinds appear
// across a modest sweep of cells, so an equivalence matrix at a few
// seeds genuinely exercises panic, hang, and error healing.
func TestRunFaultKindsCovered(t *testing.T) {
	t.Parallel()
	in := New(11, Plan{RunFaultRate: 1, RunFaultAttempts: 1})
	seen := map[Kind]bool{}
	for i := 0; i < 64; i++ {
		bench := string(rune('a'+i%26)) + string(rune('0'+i/26))
		seen[in.RunFault(bench, "p", 0)] = true
	}
	for _, k := range []Kind{RunPanic, RunHang, RunError} {
		if !seen[k] {
			t.Errorf("kind %s never chosen across 64 cells", k)
		}
	}
}

func TestFiredCounts(t *testing.T) {
	t.Parallel()
	in := New(8, Plan{NetPut: 1, RunFaultRate: 1, RunFaultAttempts: 1})
	for i := 0; i < 5; i++ {
		in.NetFault("k")
	}
	kind := in.RunFault("b", "p", 0)
	fired := in.Fired()
	if fired[NetPut] != 5 {
		t.Fatalf("NetPut fired = %d, want 5", fired[NetPut])
	}
	if kind == "" || fired[kind] != 1 {
		t.Fatalf("run fault %q fired = %d, want 1", kind, fired[kind])
	}
}

// TestKillCoordinatorSchedule pins the coordinator-kill verdict: a plan
// with CoordKills=k fires exactly k times as the WAL entry counter
// climbs, at seed-deterministic offsets within the window, and never
// fires again — so the final incarnation always completes.
func TestKillCoordinatorSchedule(t *testing.T) {
	t.Parallel()
	plan := Plan{CoordKills: 3, CoordKillWindow: 8}

	killEntries := func(seed uint64) []uint64 {
		in := New(seed, plan)
		var at []uint64
		n := uint64(0)
		for incarnation := 0; incarnation < plan.CoordKills+1; incarnation++ {
			// Each incarnation restarts the entry counter at 1, exactly
			// like the real WAL.
			for n = 1; n <= 64; n++ {
				if in.KillCoordinatorAt(n) {
					at = append(at, n)
					break
				}
			}
		}
		return at
	}

	at := killEntries(7)
	if len(at) != plan.CoordKills {
		t.Fatalf("fired %d kills, want %d (at %v)", len(at), plan.CoordKills, at)
	}
	for i, n := range at {
		// Target is 1..window entries past the first observed counter
		// value (1), so it always lands within 2..window+1.
		if n < 2 || n > uint64(plan.CoordKillWindow)+1 {
			t.Fatalf("kill %d fired at entry %d, outside window [2, %d]", i, n, plan.CoordKillWindow+1)
		}
	}
	if got := killEntries(7); len(got) != len(at) || got[0] != at[0] || got[2] != at[2] {
		t.Fatalf("kill schedule not seed-deterministic: %v vs %v", got, at)
	}
	if fired := New(7, Plan{}).KillCoordinatorAt(100); fired {
		t.Fatal("CoordKills=0 plan killed the coordinator")
	}

	// The bound is spent: no further kills no matter how far the WAL grows.
	in := New(7, plan)
	fired := 0
	for n := uint64(1); n <= 4096; n++ {
		if in.KillCoordinatorAt(n) {
			fired++
		}
	}
	if fired != plan.CoordKills {
		t.Fatalf("%d kills over one long incarnation, want %d", fired, plan.CoordKills)
	}
	if got := in.Fired()[CoordinatorKill]; got != uint64(plan.CoordKills) {
		t.Fatalf("Fired[CoordinatorKill] = %d, want %d", got, plan.CoordKills)
	}
}

// TestWALTearBytes pins the tear verdict: rate 0 never tears, rate 1
// always tears 1..64 bytes, and the verdict is seed-deterministic per
// kill index.
func TestWALTearBytes(t *testing.T) {
	t.Parallel()
	if n := New(3, Plan{}).WALTearBytes(1); n != 0 {
		t.Fatalf("zero-rate tear returned %d bytes", n)
	}
	always := New(3, Plan{WALTear: 1})
	replay := New(3, Plan{WALTear: 1})
	for k := 1; k <= 8; k++ {
		n := always.WALTearBytes(k)
		if n < 1 || n > 64 {
			t.Fatalf("kill %d: tear %d bytes, want 1..64", k, n)
		}
		if m := replay.WALTearBytes(k); m != n {
			t.Fatalf("kill %d: tear not deterministic (%d vs %d)", k, n, m)
		}
	}
	if got := always.Fired()[WALTear]; got != 8 {
		t.Fatalf("Fired[WALTear] = %d, want 8", got)
	}
}
