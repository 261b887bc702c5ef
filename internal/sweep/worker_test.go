package sweep

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
)

// runWorkers stands the coordinator behind a loopback server and runs n
// workers against it until the sweep completes.
func runWorkers(t *testing.T, coord *Coordinator, n int, kill func(Cell, int, string) bool) []WorkerStats {
	t.Helper()
	store, err := ckpt.New(ckpt.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(coord, store, nil, nil).Handler())
	t.Cleanup(ts.Close)
	stats := make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunWorker(WorkerOptions{
				Client: NewClient(ts.URL, nil),
				ID:     fmt.Sprintf("w%d", i),
				Poll:   10 * time.Millisecond,
				Kill:   kill,
			})
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
