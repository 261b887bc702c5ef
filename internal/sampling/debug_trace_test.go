package sampling

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestDebugTrace is a development aid: it dumps the full-timing interval
// trace alongside Dynamic Sampling detections for one benchmark so the
// correlation between VM statistics and IPC can be inspected.
func TestDebugTrace(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("debug trace is slow")
	}
	spec, _ := workload.ByName("gzip")
	opts := core.Options{Scale: 2_000}

	s := core.NewSession(spec, opts)
	ft := FullTiming{TraceIntervals: 1 << 20}
	base, err := ft.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, mark := range s.Machine().PhaseLog() {
		ph := s.Plan().Phases[mark.Value-1]
		t.Logf("plan phase %2d %-10s trans=%-5s start-int=%d ws=%d",
			ph.ID, ph.Kernel, ph.Transition, mark.Instr/s.IntervalLen(), ph.WSWords)
	}
	// Print a decimated trace with phase-relevant activity.
	for i, tr := range base.Trace {
		if i%50 == 0 || tr.TCInvalidations > 0 || tr.IOOps > 0 {
			t.Logf("int %5d ipc=%.3f inv=%-3d exc=%-4d io=%d",
				tr.Index, tr.IPC, tr.TCInvalidations, tr.Exceptions, tr.IOOps)
		}
		if i > 2000 {
			break
		}
	}

	s2 := core.NewSession(spec, opts)
	ds := NewDynamic(vm.MetricCPU, 300, 1, 0)
	res, err := ds.Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DS CPU: est=%.4f base=%.4f err=%.2f%% samples=%d detections=%v",
		res.EstIPC, base.EstIPC, res.ErrorVs(base)*100, res.Samples, res.Detections)
}
