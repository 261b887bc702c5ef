package sweep

import (
	"runtime"
	"testing"
	"time"
)

// timeSweep runs one full distributed sweep with the given worker count
// and returns its wall-clock makespan (claim of the first cell to
// completion of the last).
func timeSweep(t *testing.T, cfg Config, workers int) time.Duration {
	t.Helper()
	start := time.Now()
	runWorkers(t, NewCoordinator(cfg, nil, nil), workers, nil)
	return time.Since(start)
}

// TestSweepSmokeSpeedup is the scheduling smoke benchmark: the same
// cell matrix swept by 4 workers must finish at least 2x faster than by
// 1 worker. The bound is conservative — the matrix has far more cells
// than workers and the slowest single cell is well under half the
// serial makespan — so falling below it means the sweep serialized
// somewhere (lease starvation, a coordinator bottleneck, or workers
// waiting on each other's checkpoints).
func TestSweepSmokeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke benchmark is slow; skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs 4 CPUs for a meaningful speedup bound; have %d", runtime.GOMAXPROCS(0))
	}
	cfg := Config{
		Scale:      50_000,
		Benchmarks: []string{"gzip", "vpr", "mcf", "perlbmk", "bzip2", "twolf"},
		LeaseTTL:   30 * time.Second,
	}

	serial := timeSweep(t, cfg, 1)
	parallel := timeSweep(t, cfg, 4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("sweep makespan: 1 worker %v, 4 workers %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2.0 {
		t.Fatalf("4-worker sweep speedup %.2fx, want >= 2x (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}
