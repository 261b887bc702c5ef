package experiments

import (
	"testing"

	"repro/internal/sampling"
	"repro/internal/vm"
)

// TestDiagPerBench prints per-benchmark accuracy for the headline
// policies — a development aid for shape tuning.
func TestDiagPerBench(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow diagnostic")
	}
	r := NewRunner(Options{Scale: 4000, Benchmarks: []string{"gzip", "mcf", "perlbmk", "swim"}})
	pols := []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewDynamic(vm.MetricIO, 100, 1, 0),
	}
	for _, b := range r.Benchmarks() {
		base, err := r.Baseline(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pols {
			res, err := r.Run(b, p)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-8s %-14s ipc=%.4f base=%.4f err=%.2f%% samples=%d",
				b, res.Policy, res.EstIPC, base.EstIPC, res.ErrorVs(base)*100, res.Samples)
		}
		// SimPoint per-point diagnosis: measured IPC vs the baseline
		// trace IPC at the same interval.
		an, err := r.Analysis(b)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := r.Run(b, nil2())
		_ = sp
		t.Logf("%-8s SimPoint k=%d points=%v", b, an.K, an.Points)
		res := r.results[b]["SimPoint"]
		t.Logf("%-8s SimPoint ipc=%.4f err=%.2f%%", b, res.EstIPC, res.ErrorVs(base)*100)
		for j, pt := range an.Points {
			if pt < len(base.Trace) {
				t.Logf("   point %4d w=%.3f traceIPC=%.3f", pt, an.Weights[j], base.Trace[pt].IPC)
			}
		}
	}
}

func nil2() sampling.Policy { return sampling.FullTiming{} }
