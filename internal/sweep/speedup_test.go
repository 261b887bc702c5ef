package sweep

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestSweepSmokeSpeedup is the scheduling smoke benchmark: the same cell
// matrix swept by 1 worker and by 4. On every host, each of the 4
// workers must complete at least one cell and their merged journal must
// be the 1-worker one. Where the host has 4 CPUs to run them on, the 4
// workers must also finish at least 2x faster. That bound is
// conservative — the matrix has far more cells than workers and the
// slowest single cell is well under half the serial makespan — so
// falling below it means the sweep serialized somewhere (lease
// starvation, a coordinator bottleneck, or workers waiting on each
// other's checkpoints).
func TestSweepSmokeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke benchmark is slow; skipped in -short")
	}
	cfg := Config{
		Scale:      50_000,
		Benchmarks: []string{"gzip", "vpr", "mcf", "perlbmk", "bzip2", "twolf"},
		LeaseTTL:   30 * time.Second,
	}

	start := time.Now()
	single, _ := runOneWorker(t, cfg, nil, nil)
	serial := time.Since(start)
	start = time.Now()
	multi := NewCoordinator(cfg, nil, nil)
	stats := runWorkers(t, multi, 4, nil)
	parallel := time.Since(start)

	for i, st := range stats {
		if st.Completions == 0 {
			t.Errorf("worker %d completed no cell: %+v", i, st)
		}
	}
	if !bytes.Equal(mergedJournal(t, multi), mergedJournal(t, single)) {
		t.Error("4-worker merged journal differs from the 1-worker journal")
	}

	speedup := float64(serial) / float64(parallel)
	t.Logf("sweep makespan: 1 worker %v, 4 workers %v, speedup %.2fx", serial, parallel, speedup)
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Logf("speedup bound not applied: %d CPUs, GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
		return
	}
	if speedup < 2.0 {
		t.Fatalf("4-worker sweep speedup %.2fx, want >= 2x (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}
