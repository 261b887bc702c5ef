package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// runWorkers stands the coordinator and a fresh disk-backed store behind
// a loopback server and runs n workers against it until the sweep
// completes.
func runWorkers(t *testing.T, coord *Coordinator, n int, kill func(Cell, int, string) bool) []WorkerStats {
	t.Helper()
	store, err := ckpt.New(ckpt.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return sweepOn(t, coord, store, n, func(o *WorkerOptions) { o.Kill = kill })
}

// sweepOn is runWorkers over the caller's store, each worker's options
// passed through tweak (when non-nil) first.
func sweepOn(t testing.TB, coord *Coordinator, store *ckpt.Store, n int, tweak func(*WorkerOptions)) []WorkerStats {
	t.Helper()
	ts := httptest.NewServer(NewServer(coord, store, nil, nil).Handler())
	defer ts.Close()
	stats := make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := WorkerOptions{
				Client: NewClient(ts.URL, nil),
				ID:     fmt.Sprintf("w%d", i),
				Poll:   10 * time.Millisecond,
			}
			if tweak != nil {
				tweak(&opts)
			}
			stats[i], errs[i] = RunWorker(opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !coord.Done() {
		t.Fatalf("sweep incomplete: %+v", coord.Stats())
	}
	return stats
}

// runOneWorker runs one worker to completion against a fresh in-memory
// coordinator (with optional prior journal records).
func runOneWorker(t *testing.T, cfg Config, prior []experiments.JournalRecord,
	kill func(Cell, int, string) bool) (*Coordinator, WorkerStats) {
	t.Helper()
	coord := NewCoordinator(cfg, prior, nil)
	return coord, runWorkers(t, coord, 1, kill)[0]
}

// cellRecordCount is how many journal records each of the cells ships.
func cellRecordCount(cells []Cell) int {
	var n int
	for _, cell := range cells {
		names, analysis := experiments.KeyRecordNames(cell.Policy)
		n += len(names)
		if analysis {
			n++
		}
	}
	return n
}

// mergedJournal writes the coordinator's merged journal and returns its
// bytes.
func mergedJournal(t *testing.T, coord *Coordinator) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := coord.WriteJournal(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerKilledBetweenExecuteAndComplete pins the classic crash
// window: the worker dies after executing a cell but before the
// completion that carries its records. Every cell suffers exactly one
// such kill. At the kill the coordinator holds no record of the cell —
// records travel with the completion only — and the sweep must still
// converge with exactly-once accounting: the re-issued delivery
// completes each cell, once, into the journal an unkilled sweep merges.
func TestWorkerKilledBetweenExecuteAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	cfg := Config{Scale: 50_000, Benchmarks: []string{"gzip"}, LeaseTTL: 200 * time.Millisecond}
	cells := cfg.Cells()

	coord := NewCoordinator(cfg, nil, nil)
	holdsRecordOf := func(cell Cell) bool {
		names, analysis := experiments.KeyRecordNames(cell.Policy)
		coord.mu.Lock()
		defer coord.mu.Unlock()
		_, held := coord.records[recordKey{kind: "analysis", bench: cell.Bench}]
		held = held && analysis
		for _, name := range names {
			if _, ok := coord.records[recordKey{kind: "result", bench: cell.Bench, policy: name}]; ok {
				held = true
			}
		}
		return held
	}
	kill := func(cell Cell, delivery int, stage string) bool {
		if stage != "appended" || delivery != 0 {
			return false
		}
		if holdsRecordOf(cell) {
			t.Errorf("coordinator holds a record of %s before any completion of it", cell)
		}
		return true
	}
	wst := runWorkers(t, coord, 1, kill)[0]

	cst := coord.Stats()
	if cst.Completions != uint64(len(cells)) {
		t.Fatalf("Completions = %d, want exactly-once %d: %+v", cst.Completions, len(cells), cst)
	}
	if wst.Abandons != uint64(len(cells)) {
		t.Fatalf("Abandons = %d, want one kill per cell (%d)", wst.Abandons, len(cells))
	}
	if cst.Reissues < uint64(len(cells)) {
		t.Fatalf("Reissues = %d, want >= %d (every killed lease re-issued)", cst.Reissues, len(cells))
	}
	// The same worker picks the re-issue up, so its memo serves it: one
	// execution per cell despite two deliveries of each.
	if wst.Executions != len(cells) {
		t.Fatalf("Executions = %d, want %d (the memo serves the re-issued delivery)",
			wst.Executions, len(cells))
	}
	if want := uint64(cellRecordCount(cells)); cst.Records != want || cst.DupRecords != 0 {
		t.Fatalf("Records = %d DupRecords = %d, want %d and 0", cst.Records, cst.DupRecords, want)
	}

	unkilled, _ := runOneWorker(t, cfg, nil, nil)
	if !bytes.Equal(mergedJournal(t, coord), mergedJournal(t, unkilled)) {
		t.Fatal("merged journal differs from the unkilled sweep's")
	}
}

// TestWorkerStopsOnCancelDuringHungClaim pins that cancelling a
// worker's context aborts its in-flight coordinator round trip: a
// coordinator that accepts a claim and never answers must not hold the
// worker until the HTTP client's own timeout.
func TestWorkerStopsOnCancelDuringHungClaim(t *testing.T) {
	coord := NewCoordinator(testConfig(), nil, nil)
	h := NewServer(coord, nil, nil, nil).Handler()
	claimed := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/claim" {
			h.ServeHTTP(w, r)
			return
		}
		select {
		case claimed <- struct{}{}:
		default:
		}
		<-release
	}))
	defer ts.Close()
	defer close(release) // before ts.Close, which waits for the handler

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerOptions{Client: NewClient(ts.URL, nil), ID: "w", Context: ctx})
		errc <- err
	}()
	select {
	case <-claimed:
	case err := <-errc:
		t.Fatalf("worker exited before claiming: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("worker never sent a claim")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunWorker = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunWorker still blocked 2 s after its context was cancelled")
	}
}

// TestWorkerConfigFetchRetriesOnTheReconnectLadder: a coordinator that
// answers 503 to the first three config fetches still gets the worker,
// which joins and completes the sweep; a 404 is outside the reconnect
// class and ends RunWorker after exactly one request.
func TestWorkerConfigFetchRetriesOnTheReconnectLadder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		failures int64 // config fetches answered with status
		wantErr  bool
	}{
		{"503 three times", http.StatusServiceUnavailable, 3, false},
		{"404", http.StatusNotFound, 1 << 30, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Scale: 200_000, Benchmarks: []string{"gzip"}, LeaseTTL: 30 * time.Second}
			coord := NewCoordinator(cfg, nil, nil)
			h := NewServer(coord, nil, nil, nil).Handler()
			var fetches atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/config" && fetches.Add(1) <= tc.failures {
					http.Error(w, "not now", tc.status)
					return
				}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			st, err := RunWorker(WorkerOptions{
				Client:      NewClient(ts.URL, nil),
				ID:          "w",
				Poll:        10 * time.Millisecond,
				BackoffBase: time.Millisecond,
				BackoffMax:  5 * time.Millisecond,
			})
			if tc.wantErr {
				if err == nil || fetches.Load() != 1 {
					t.Fatalf("RunWorker = %v after %d config requests, want an error after 1", err, fetches.Load())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := fetches.Load(); got != tc.failures+1 {
				t.Errorf("%d config requests, want %d", got, tc.failures+1)
			}
			if want := uint64(len(cfg.Cells())); !coord.Done() || st.Completions != want {
				t.Fatalf("worker completed %d of %d cells (done = %v)", st.Completions, want, coord.Done())
			}
		})
	}
}

// TestFaultFreeSweepShipsEachRecordOnce: with no faults, two workers
// deliver every record of the matrix exactly once — nothing arrives
// twice, and the WAL holds one record entry per record.
func TestFaultFreeSweepShipsEachRecordOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	cfg := Config{Scale: 50_000, Benchmarks: []string{"gzip", "perlbmk"}, LeaseTTL: 30 * time.Second}
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	coord, err := NewWALCoordinator(cfg, walPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, coord, 2, nil)
	if err := coord.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	want := cellRecordCount(cfg.Cells())
	st := coord.Stats()
	if st.DupRecords != 0 || st.Records != uint64(want) {
		t.Fatalf("Records = %d DupRecords = %d, want %d and 0", st.Records, st.DupRecords, want)
	}
	replayed, _, err := replayWAL(walPath, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[recordKey]bool)
	for _, rec := range replayed.records {
		seen[recordKey{rec.Kind, rec.Bench, rec.Policy}] = true
	}
	if len(replayed.records) != want || len(seen) != want {
		t.Fatalf("WAL holds %d record entries for %d distinct records, want %d of each",
			len(replayed.records), len(seen), want)
	}
}

// TestSweepResumeExecutesStrictlyLess pins sweep-level resume: a
// coordinator rebuilt over the previous sweep's (partial) merged
// journal leases out only the missing cells, so the resumed sweep
// re-executes strictly less than the original.
func TestSweepResumeExecutesStrictlyLess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	cfg := Config{Scale: 50_000, Benchmarks: []string{"gzip"}, LeaseTTL: 30 * time.Second}
	cells := cfg.Cells()

	// Original sweep, from scratch: executes every cell.
	coord, wst := runOneWorker(t, cfg, nil, nil)
	if wst.Executions != len(cells) {
		t.Fatalf("fresh sweep executed %d cells, want %d", wst.Executions, len(cells))
	}

	// Persist the canonical journal, then simulate a crash that lost the
	// last cell: the prior journal holds all but one record set.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	if err := coord.WriteJournal(path); err != nil {
		t.Fatal(err)
	}
	records, err := experiments.ReadJournal(path, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	last := cells[len(cells)-1]
	lastNames, _ := experiments.KeyRecordNames(last.Policy)
	isLast := func(rec experiments.JournalRecord) bool {
		if rec.Bench != last.Bench || rec.Kind != "result" {
			return false
		}
		for _, n := range lastNames {
			if rec.Policy == n {
				return true
			}
		}
		return false
	}
	var prior []experiments.JournalRecord
	for _, rec := range records {
		if !isLast(rec) {
			prior = append(prior, rec)
		}
	}

	// Resumed sweep: only the lost cell is leased and executed.
	coord2, wst2 := runOneWorker(t, cfg, prior, nil)
	if !coord2.Done() {
		t.Fatalf("resumed sweep incomplete: %+v", coord2.Stats())
	}
	cst := coord2.Stats()
	if cst.Replayed != len(cells)-1 {
		t.Fatalf("Replayed = %d, want %d", cst.Replayed, len(cells)-1)
	}
	if wst2.Executions >= wst.Executions {
		t.Fatalf("resumed sweep executed %d cells, want strictly fewer than %d",
			wst2.Executions, wst.Executions)
	}
	if wst2.Executions != 1 {
		t.Fatalf("resumed sweep executed %d cells, want exactly the lost one", wst2.Executions)
	}

	// Both merged journals are byte-identical once the resumed sweep
	// refills the hole.
	if !bytes.Equal(mergedJournal(t, coord), mergedJournal(t, coord2)) {
		t.Fatal("resumed sweep's merged journal differs from the original's")
	}
}

// TestTwoWorkerSweepUploadsEachKeyOnce is the locality rule and the
// byte-keeping coordinator tier seen from a whole sweep: two workers
// over three benchmarks upload every checkpoint key once — only the
// tail, where both may end up on the last benchmark, can repeat any —
// the server keeps nothing in memory, and the merged journal is the one
// a single worker produces.
func TestTwoWorkerSweepUploadsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	cfg := Config{Scale: 50_000, Benchmarks: []string{"gzip", "mcf", "perlbmk"}, LeaseTTL: 30 * time.Second}
	dir := t.TempDir()
	store, err := ckpt.New(ckpt.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(cfg, nil, nil)
	sweepOn(t, coord, store, 2, nil)

	perBench := make(map[string]uint64)
	var keys, largest uint64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		k, ok := ckpt.ParseKey(strings.TrimSuffix(e.Name(), ".ckpt"))
		if !ok {
			t.Fatalf("stray file %s in the coordinator tier", e.Name())
		}
		keys++
		perBench[k.Workload]++
		largest = max(largest, perBench[k.Workload])
	}
	st := store.Stats()
	if len(perBench) != len(cfg.Benchmarks) || st.Puts != keys || st.DiskWrites != keys {
		t.Fatalf("%d keys of %d benchmarks on disk, store says %+v", keys, len(perBench), st)
	}
	if st.DupPuts > largest {
		t.Fatalf("%d duplicate uploads, more than the %d keys of one benchmark: %+v", st.DupPuts, largest, st)
	}
	// Nothing the server decoded is retained, neither to verify an
	// upload nor to serve a GET, however many the tail made.
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("%d in-memory entries (%d bytes) after %d served lookups: %+v", st.Entries, st.Bytes, st.Hits+st.NearestHits, st)
	}

	single, _ := runOneWorker(t, cfg, nil, nil)
	if !bytes.Equal(mergedJournal(t, coord), mergedJournal(t, single)) {
		t.Fatal("two-worker merged journal differs from the one-worker journal")
	}
}

// TestWorkerKeepsItsTiersWithoutADisk: a worker's store has no disk
// tier, only memory and the coordinator — it still mirrors its deposits
// to the coordinator and still reports its store counters.
func TestWorkerKeepsItsTiersWithoutADisk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short")
	}
	store, err := ckpt.New(ckpt.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{Scale: 50_000, Benchmarks: []string{"gzip"}, LeaseTTL: 30 * time.Second}
	sweepOn(t, NewCoordinator(cfg, nil, nil), store, 1, func(o *WorkerOptions) {
		o.Obs = reg
	})
	if st := store.Stats(); st.Puts == 0 {
		t.Errorf("the remote tier received no uploads: %+v", st)
	}
	if puts := reg.Counter("ckpt_store_puts_total").Value(); puts == 0 || puts != reg.Counter("ckpt_store_remote_puts_total").Value() {
		t.Errorf("ckpt_store_puts_total = %d, remote puts = %d", puts, reg.Counter("ckpt_store_remote_puts_total").Value())
	}
}

// lastBenchStore keeps the coordinator tier of BenchmarkSweepTwoWorkers'
// last sweep reachable, so a heap profile written after the benchmark
// (make profile-sweep) shows what that tier retains.
var lastBenchStore *ckpt.Store

// BenchmarkSweepTwoWorkers is one distributed sweep per iteration —
// loopback server, disk-backed coordinator tier, two workers, three
// benchmarks — reporting its throughput and how many checkpoint uploads
// the server stored and how many it was sent twice.
func BenchmarkSweepTwoWorkers(b *testing.B) {
	cfg := Config{Scale: 40_000, Benchmarks: []string{"gzip", "mcf", "swim"}, LeaseTTL: 30 * time.Second}
	var instr, puts, dups uint64
	for i := 0; i < b.N; i++ {
		store, err := ckpt.New(ckpt.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		coord := NewCoordinator(cfg, nil, nil)
		sweepOn(b, coord, store, 2, nil)
		for _, rec := range coord.Merged() {
			if rec.Result != nil {
				instr += rec.Result.Instructions
			}
		}
		st := store.Stats()
		puts, dups = puts+st.Puts, dups+st.DupPuts
		lastBenchStore = store
	}
	b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "Minstr/s")
	b.ReportMetric(float64(puts)/float64(b.N), "puts/op")
	b.ReportMetric(float64(dups)/float64(b.N), "dup-puts/op")
}
