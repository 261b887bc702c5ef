package timing

import (
	"testing"

	"repro/internal/vm"
	"repro/internal/workload"
)

// TestKernelIPCSpread runs each kernel archetype in detail and checks
// the timing model produces distinct, sensible IPC levels: pointer
// chasing must be memory-latency bound, ALU kernels near full width.
func TestKernelIPCSpread(t *testing.T) {
	ipcs := map[string]float64{}
	for kind := workload.KernelKind(0); int(kind) < workload.NumKernelKinds; kind++ {
		m := vm.New(vm.Config{})
		frag := workload.BuildFragment(kind, 0, workload.HotBase)
		img := workload.BuildKernelImage(frag, 1<<14 /* 128KB WS */, 12, 16)
		m.Load(img)
		core := NewCore(DefaultConfig())
		// Warm up, then measure.
		m.Run(20_000, core)
		start := core.Marker()
		m.Run(100_000, core)
		ipc := IPC(start, core.Marker())
		ipcs[kind.String()] = ipc
		t.Logf("%-8s ipc=%.3f mispred=%d", kind, ipc, core.mispredicts)
	}
	if !(ipcs["alu"] > 2.0) {
		t.Errorf("alu IPC %.2f, want > 2.0 (should be near width)", ipcs["alu"])
	}
	if !(ipcs["chase"] < ipcs["alu"]/2) {
		t.Errorf("chase IPC %.2f not well below alu %.2f", ipcs["chase"], ipcs["alu"])
	}
	if !(ipcs["branchy"] < ipcs["alu"]) {
		t.Errorf("branchy IPC %.2f not below alu %.2f", ipcs["branchy"], ipcs["alu"])
	}
}
