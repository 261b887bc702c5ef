package sampling_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestDepositSetPerPolicy pins which sessions leave snapshots where
// they leave fast mode: only before a burst of exactly one base
// interval that starts on a boundary. Each policy runs on gzip at scale
// 20 000 with a cold store of its own. The counts of
// check.DefaultPolicies are what the store put before a Run that stops
// inside a block continued it, when a session deposited only while
// every Run so far had been one aligned base interval: Full timing,
// SMARTS, SimPoint, Stratified and RankedSet put none, and Dynamic at
// 1M puts one per departure, 78 for its 78 samples. Dynamic at 10M put
// none then, because its fast bursts are ten intervals long; its
// departures are for one interval, so it now puts one per sample, 17.
// Without the one-interval rule Stratified and RankedSet would put one
// at nearly every sample, before its two intervals of detailed warming.
func TestDepositSetPerPolicy(t *testing.T) {
	t.Parallel()
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 20_000
	policies := append(check.DefaultPolicies(spec.ScaledInstr(scale)), sampling.NewDynamic(vm.MetricCPU, 300, 10, 0))
	want := []uint64{0, 0, 0, 78, 0, 0, 17}
	for i, p := range policies {
		store := ckpt.NewMemory()
		if _, err := p.Run(core.NewSession(spec, core.Options{Scale: scale, Ckpt: store})); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got := store.Stats().Puts; got != want[i] {
			t.Errorf("%s put %d snapshots, want %d", p.Name(), got, want[i])
		}
	}
}
