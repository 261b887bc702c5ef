package sweep

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/simpoint"
)

// Test fixtures: one benchmark, the standard 4-cell matrix, a
// synthetic clock. The coordinator is clock-explicit, so every
// transition — including expiry — is driven without sleeping.

const testTTL = 10 * time.Second

func testConfig() Config {
	return Config{Scale: 2000, Benchmarks: []string{"gzip"}, LeaseTTL: testTTL}
}

// recordsFor fabricates the full record set one cell's execution
// journals. Values are synthetic — the state machine cares about
// identity, not contents.
func recordsFor(cell Cell) []experiments.JournalRecord {
	names, analysis := experiments.KeyRecordNames(cell.Policy)
	var out []experiments.JournalRecord
	if analysis {
		out = append(out, experiments.JournalRecord{
			Kind: "analysis", Bench: cell.Bench, Analysis: &simpoint.Analysis{K: 1},
		})
	}
	for _, name := range names {
		out = append(out, experiments.JournalRecord{
			Kind: "result", Bench: cell.Bench, Policy: name,
			Result: &sampling.Result{Policy: name, Bench: cell.Bench, EstIPC: 1.5},
		})
	}
	return out
}

// completeAll drains the coordinator: claim and complete every pending
// cell at the given time.
func completeAll(t *testing.T, c *Coordinator, now time.Time) {
	t.Helper()
	for {
		lease, done := c.Claim("drain", now)
		if done {
			return
		}
		if lease == nil {
			t.Fatalf("claim returned neither lease nor done: %+v", c.Stats())
		}
		if err := c.Complete(lease.ID, recordsFor(lease.Cell), now); err != nil {
			t.Fatalf("complete %s: %v", lease.Cell, err)
		}
	}
}

// TestLeaseStateMachine walks every transition of the lease state
// machine through table-driven scenarios. Each step acts at an explicit
// virtual time, so expiry paths are exercised deterministically.
func TestLeaseStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)

	type step struct {
		name string
		run  func(t *testing.T, c *Coordinator)
	}
	scenarios := []struct {
		name  string
		steps []step
	}{
		{
			name: "claim-issues-matrix-order-then-starves",
			steps: []step{
				{"claims walk the matrix in order", func(t *testing.T, c *Coordinator) {
					cells := c.Config().Cells()
					var got []Cell
					for range cells {
						lease, done := c.Claim("w", t0)
						if done || lease == nil {
							t.Fatalf("claim starved early: %+v", c.Stats())
						}
						if lease.Delivery != 0 {
							t.Fatalf("first delivery of %s numbered %d, want 0", lease.Cell, lease.Delivery)
						}
						got = append(got, lease.Cell)
					}
					for i, cell := range cells {
						if got[i] != cell {
							t.Fatalf("claim order diverges at %d: got %s want %s", i, got[i], cell)
						}
					}
				}},
				{"everything leased: claim yields neither lease nor done", func(t *testing.T, c *Coordinator) {
					lease, done := c.Claim("w2", t0)
					if lease != nil || done {
						t.Fatalf("claim with all cells leased: lease=%v done=%v", lease, done)
					}
				}},
			},
		},
		{
			name: "heartbeat-extends-expiry",
			steps: []step{
				{"heartbeats carry a lease past several TTLs", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					now := t0
					for i := 0; i < 5; i++ {
						now = now.Add(testTTL / 2)
						if err := c.Heartbeat(lease.ID, now); err != nil {
							t.Fatalf("heartbeat %d: %v", i, err)
						}
					}
					// 2.5 TTLs after claim the lease is alive; completion succeeds.
					if err := c.Complete(lease.ID, recordsFor(lease.Cell), now); err != nil {
						t.Fatalf("complete after heartbeats: %v", err)
					}
				}},
			},
		},
		{
			name: "expiry-reissues-with-next-delivery",
			steps: []step{
				{"silent lease expires and re-issues", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					late := t0.Add(testTTL + time.Second)
					release, done := c.Claim("w2", late)
					if done || release == nil {
						t.Fatalf("re-claim after expiry: lease=%v done=%v", release, done)
					}
					if release.Cell != lease.Cell {
						t.Fatalf("re-issue leased %s, want the expired cell %s", release.Cell, lease.Cell)
					}
					if release.Delivery != 1 {
						t.Fatalf("re-issue delivery %d, want 1", release.Delivery)
					}
					if got := c.Stats().Reissues; got != 1 {
						t.Fatalf("Reissues = %d, want 1", got)
					}
				}},
			},
		},
		{
			name: "stale-messages-rejected",
			steps: []step{
				{"heartbeat on expired lease", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					late := t0.Add(2 * testTTL)
					if err := c.Heartbeat(lease.ID, late); !errors.Is(err, ErrStaleLease) {
						t.Fatalf("heartbeat on expired lease: %v, want ErrStaleLease", err)
					}
				}},
				{"append on expired lease", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					late := t0.Add(2 * testTTL)
					err := c.Append(lease.ID, recordsFor(lease.Cell), late)
					if !errors.Is(err, ErrStaleLease) {
						t.Fatalf("append on expired lease: %v, want ErrStaleLease", err)
					}
				}},
				{"late complete after re-issue is rejected", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					late := t0.Add(2 * testTTL)
					release, _ := c.Claim("w2", late)
					if release == nil || release.Cell != lease.Cell {
						t.Fatalf("expected re-issue of %s, got %v", lease.Cell, release)
					}
					// The presumed-dead worker finishes anyway and completes late.
					err := c.Complete(lease.ID, recordsFor(lease.Cell), late)
					if !errors.Is(err, ErrStaleLease) {
						t.Fatalf("late complete: %v, want ErrStaleLease", err)
					}
					if got := c.Stats().Completions; got != 0 {
						t.Fatalf("late complete counted: Completions = %d, want 0", got)
					}
					// The live holder's completion is the one that counts.
					if err := c.Complete(release.ID, recordsFor(release.Cell), late); err != nil {
						t.Fatalf("live complete: %v", err)
					}
					if got := c.Stats().StaleDrops; got == 0 {
						t.Fatal("stale drops not counted")
					}
				}},
				{"unknown lease id", func(t *testing.T, c *Coordinator) {
					if err := c.Heartbeat(999999, t0); !errors.Is(err, ErrStaleLease) {
						t.Fatalf("unknown lease: %v, want ErrStaleLease", err)
					}
				}},
			},
		},
		{
			name: "complete-requires-full-record-set",
			steps: []step{
				{"completion without records is rejected, lease survives", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					err := c.Complete(lease.ID, nil, t0)
					if !errors.Is(err, ErrIncompleteCell) {
						t.Fatalf("empty complete: %v, want ErrIncompleteCell", err)
					}
					// The rejection is not a lease loss: the worker may ship
					// the records and complete.
					if err := c.Heartbeat(lease.ID, t0); err != nil {
						t.Fatalf("lease died on rejected completion: %v", err)
					}
					if err := c.Complete(lease.ID, recordsFor(lease.Cell), t0); err != nil {
						t.Fatalf("complete with records: %v", err)
					}
				}},
				{"partial record set is rejected", func(t *testing.T, c *Coordinator) {
					// Find the SimPoint* cell: it needs analysis + 2 results.
					var lease *Lease
					for {
						l, done := c.Claim("w", t0)
						if done || l == nil {
							t.Fatal("SimPoint* cell never claimed")
						}
						if l.Cell.Policy == "SimPoint*" {
							lease = l
							break
						}
					}
					recs := recordsFor(lease.Cell)
					err := c.Complete(lease.ID, recs[:len(recs)-1], t0)
					if !errors.Is(err, ErrIncompleteCell) {
						t.Fatalf("partial complete: %v, want ErrIncompleteCell", err)
					}
					if err := c.Complete(lease.ID, recs, t0); err != nil {
						t.Fatalf("full complete: %v", err)
					}
				}},
			},
		},
		{
			name: "appended-records-survive-lease-death",
			steps: []step{
				{"records from a dead lease complete the re-issued cell", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					if err := c.Append(lease.ID, recordsFor(lease.Cell), t0); err != nil {
						t.Fatalf("append: %v", err)
					}
					// Worker dies between append and complete; lease expires.
					late := t0.Add(2 * testTTL)
					release, _ := c.Claim("w2", late)
					if release == nil || release.Cell != lease.Cell {
						t.Fatalf("expected re-issue of %s, got %v", lease.Cell, release)
					}
					// The new holder memo-hits (or re-executes into duplicate
					// records); either way the record set is already complete.
					if err := c.Complete(release.ID, nil, late); err != nil {
						t.Fatalf("complete on inherited records: %v", err)
					}
				}},
			},
		},
		{
			name: "duplicate-records-dedupe",
			steps: []step{
				{"re-executed records are dropped as duplicates", func(t *testing.T, c *Coordinator) {
					lease, _ := c.Claim("w", t0)
					recs := recordsFor(lease.Cell)
					if err := c.Append(lease.ID, recs, t0); err != nil {
						t.Fatalf("append: %v", err)
					}
					if err := c.Complete(lease.ID, recs, t0); err != nil {
						t.Fatalf("complete: %v", err)
					}
					st := c.Stats()
					if st.DupRecords != uint64(len(recs)) {
						t.Fatalf("DupRecords = %d, want %d", st.DupRecords, len(recs))
					}
					if st.Records != uint64(len(recs)) {
						t.Fatalf("Records = %d, want %d", st.Records, len(recs))
					}
				}},
			},
		},
		{
			name: "terminal-state",
			steps: []step{
				{"all cells complete: claims answer done", func(t *testing.T, c *Coordinator) {
					completeAll(t, c, t0)
					if !c.Done() {
						t.Fatalf("Done() false after draining: %+v", c.Stats())
					}
					lease, done := c.Claim("w", t0)
					if lease != nil || !done {
						t.Fatalf("claim after done: lease=%v done=%v", lease, done)
					}
					st := c.Stats()
					if st.Completions != uint64(st.Cells) {
						t.Fatalf("Completions = %d, want %d (exactly once)", st.Completions, st.Cells)
					}
				}},
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			c := NewCoordinator(testConfig(), nil, nil)
			for _, st := range sc.steps {
				t.Run(st.name, func(t *testing.T) { st.run(t, c) })
			}
		})
	}
}

// TestCoordinatorReplayPriorJournal pins sweep resume: a coordinator
// rebuilt over a partial canonical journal pre-completes exactly the
// cells whose record sets survived and leases out only the rest.
func TestCoordinatorReplayPriorJournal(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := testConfig()
	cells := cfg.Cells()

	// Prior journal: the first two cells completed before the crash.
	var prior []experiments.JournalRecord
	for _, cell := range cells[:2] {
		prior = append(prior, recordsFor(cell)...)
	}

	c := NewCoordinator(cfg, prior, nil)
	st := c.Stats()
	if st.Replayed != 2 || st.Done != 2 {
		t.Fatalf("Replayed=%d Done=%d, want 2/2: %+v", st.Replayed, st.Done, st)
	}
	// Only the missing cells are leased.
	for _, want := range cells[2:] {
		lease, done := c.Claim("w", t0)
		if done || lease == nil || lease.Cell != want {
			t.Fatalf("resumed claim: got %v done=%v, want %s", lease, done, want)
		}
		if err := c.Complete(lease.ID, recordsFor(lease.Cell), t0); err != nil {
			t.Fatalf("complete %s: %v", lease.Cell, err)
		}
	}
	if _, done := c.Claim("w", t0); !done {
		t.Fatal("sweep not done after completing the missing cells")
	}
}

// TestMergedCanonicalOrder pins the journal-merge ordering contract:
// whatever order records arrive in, Merged folds them into matrix
// order with each cell's analysis preceding its results — so any two
// sweeps over the same matrix merge to byte-identical journals.
func TestMergedCanonicalOrder(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := testConfig()
	cells := cfg.Cells()

	// Complete cells in reverse matrix order, shipping each cell's
	// records reversed too.
	c := NewCoordinator(cfg, nil, nil)
	leases := make(map[Cell]*Lease)
	for {
		lease, done := c.Claim("w", t0)
		if done || lease == nil {
			break
		}
		leases[lease.Cell] = lease
	}
	for i := len(cells) - 1; i >= 0; i-- {
		recs := recordsFor(cells[i])
		for j := len(recs) - 1; j >= 0; j-- {
			if err := c.Append(leases[cells[i]].ID, recs[j:j+1], t0); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := c.Complete(leases[cells[i]].ID, nil, t0); err != nil {
			t.Fatalf("complete %s: %v", cells[i], err)
		}
	}

	merged := c.Merged()
	var want []experiments.JournalRecord
	for _, cell := range cells {
		want = append(want, recordsFor(cell)...)
	}
	if len(merged) != len(want) {
		t.Fatalf("merged %d records, want %d", len(merged), len(want))
	}
	for i := range want {
		if merged[i].Kind != want[i].Kind || merged[i].Bench != want[i].Bench || merged[i].Policy != want[i].Policy {
			t.Fatalf("merge order diverges at %d: got %s/%s/%s want %s/%s/%s",
				i, merged[i].Kind, merged[i].Bench, merged[i].Policy,
				want[i].Kind, want[i].Bench, want[i].Policy)
		}
	}

	// Incomplete cells are withheld from the merge entirely: append only
	// the analysis of the SimPoint* cell and merge.
	c2 := NewCoordinator(cfg, nil, nil)
	for {
		lease, done := c2.Claim("w", t0)
		if done || lease == nil {
			t.Fatal("SimPoint* cell never claimed")
		}
		if lease.Cell.Policy != "SimPoint*" {
			continue
		}
		if err := c2.Append(lease.ID, recordsFor(lease.Cell)[:1], t0); err != nil {
			t.Fatalf("append: %v", err)
		}
		break
	}
	if got := c2.Merged(); len(got) != 0 {
		t.Fatalf("partial cell leaked %d records into the merge", len(got))
	}
}

// TestClaimLocality pins the scheduling rule — locality first, matrix
// order within — at explicit virtual times: a benchmark with a live
// lease is passed over while another has pending cells, the lease table
// alone decides (so completion, expiry and a restart each free a
// benchmark with no bookkeeping of their own), and when every benchmark
// is held the first pending cell goes out, so no claimant starves.
func TestClaimLocality(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := Config{Scale: 2000, Benchmarks: []string{"gzip", "mcf", "swim"}, LeaseTTL: testTTL}
	cells := cfg.Cells()
	perBench := len(cells) / len(cfg.Benchmarks)
	cell := func(bench, i int) Cell { return cells[bench*perBench+i] }
	claim := func(t *testing.T, c *Coordinator, worker string, now time.Time, want Cell) *Lease {
		t.Helper()
		lease, done := c.Claim(worker, now)
		if done || lease == nil {
			t.Fatalf("%s: claim gave lease=%v done=%v, want %s", worker, lease, done, want)
		}
		if lease.Cell != want {
			t.Fatalf("%s was leased %s, want %s", worker, lease.Cell, want)
		}
		return lease
	}
	complete := func(t *testing.T, c *Coordinator, l *Lease, now time.Time) {
		t.Helper()
		if err := c.Complete(l.ID, recordsFor(l.Cell), now); err != nil {
			t.Fatalf("complete %s: %v", l.Cell, err)
		}
	}

	t.Run("idle benchmarks are not shared", func(t *testing.T) {
		c := NewCoordinator(cfg, nil, nil)
		claim(t, c, "a", t0, cell(0, 0))
		claim(t, c, "b", t0, cell(1, 0))
		claim(t, c, "c", t0, cell(2, 0))
	})

	t.Run("a completing worker keeps its benchmark", func(t *testing.T) {
		c := NewCoordinator(cfg, nil, nil)
		a := claim(t, c, "a", t0, cell(0, 0))
		b := claim(t, c, "b", t0, cell(1, 0))
		for i := 1; i < perBench; i++ {
			complete(t, c, a, t0)
			a = claim(t, c, "a", t0, cell(0, i))
			complete(t, c, b, t0)
			b = claim(t, c, "b", t0, cell(1, i))
		}
		// gzip exhausted: a moves to the idle benchmark, not onto b's.
		complete(t, c, a, t0)
		claim(t, c, "a", t0, cell(2, 0))
	})

	t.Run("every benchmark held: matrix order, nobody starves", func(t *testing.T) {
		c := NewCoordinator(Config{Scale: 2000, Benchmarks: []string{"gzip", "mcf"}, LeaseTTL: testTTL}, nil, nil)
		held := []*Lease{
			claim(t, c, "a", t0, cell(0, 0)),
			claim(t, c, "b", t0, cell(1, 0)),
			claim(t, c, "c", t0, cell(0, 1)), // both held: first pending cell
			claim(t, c, "d", t0, cell(0, 2)),
		}
		// Four claimants drain two benchmarks; done is still reached with
		// every cell leased exactly once.
		for len(held) > 0 {
			complete(t, c, held[0], t0)
			held = held[1:]
			if lease, _ := c.Claim("w", t0); lease != nil {
				held = append(held, lease)
			}
		}
		st := c.Stats()
		if _, done := c.Claim("w", t0); !done || st.Claims != uint64(st.Cells) || st.Completions != uint64(st.Cells) {
			t.Fatalf("drained sweep: done=%v %+v", done, st)
		}
	})

	t.Run("an expired lease frees its benchmark", func(t *testing.T) {
		c := NewCoordinator(cfg, nil, nil)
		a := claim(t, c, "a", t0, cell(0, 0))
		claim(t, c, "b", t0, cell(1, 0))
		cl := claim(t, c, "c", t0, cell(2, 0))
		// a and c heartbeat, b goes silent.
		for _, l := range []*Lease{a, cl} {
			if err := c.Heartbeat(l.ID, t0.Add(testTTL/2)); err != nil {
				t.Fatal(err)
			}
		}
		late := t0.Add(testTTL + time.Second)
		// gzip's next cell comes first in matrix order, but gzip is held;
		// mcf is idle again, so its expired cell is re-issued.
		if l := claim(t, c, "d", late, cell(1, 0)); l.Delivery != 1 {
			t.Fatalf("re-issue numbered delivery %d, want 1", l.Delivery)
		}
	})

	t.Run("a restart from the WAL holds only its own leases", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "coord.wal")
		c, err := NewWALCoordinator(cfg, path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		complete(t, c, claim(t, c, "a", t0, cell(0, 0)), t0)
		claim(t, c, "a", t0, cell(0, 1))
		claim(t, c, "b", t0, cell(1, 0))
		c.Kill()
		// The grants above are in the WAL, but leases die with their
		// incarnation (wal.go): nothing is held until the successor
		// grants, and then its lease table is all the rule reads.
		c2, err := NewWALCoordinator(cfg, path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.CloseWAL()
		if l := claim(t, c2, "b", t0, cell(0, 1)); l.Delivery != 1 {
			t.Fatalf("re-grant numbered delivery %d, want 1", l.Delivery)
		}
		claim(t, c2, "a", t0, cell(1, 0))
		claim(t, c2, "c", t0, cell(2, 0))
		claim(t, c2, "d", t0, cell(0, 2))
	})

	t.Run("the same calls yield the same grants", func(t *testing.T) {
		script := func() []Cell {
			c := NewCoordinator(cfg, nil, nil)
			var got []Cell
			var held []*Lease
			now := t0
			for i := 0; len(got) < 2*len(cells) && !c.Done(); i++ {
				now = now.Add(time.Second)
				if lease, _ := c.Claim(fmt.Sprintf("w%d", i%3), now); lease != nil {
					got = append(got, lease.Cell)
					held = append(held, lease)
				}
				switch {
				case i%5 == 4 && len(held) > 0:
					held = held[1:] // abandoned: expires into a re-issue
				case i%2 == 1 && len(held) > 0:
					// Refused when the lease has expired meanwhile.
					_ = c.Complete(held[0].ID, recordsFor(held[0].Cell), now)
					held = held[1:]
				}
			}
			return got
		}
		first, second := script(), script()
		if len(first) < len(cells) || !reflect.DeepEqual(first, second) {
			t.Fatalf("grant sequences differ or fall short:\n%v\n%v", first, second)
		}
	})
}
