package check

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// CheckpointEquivalence replays every policy on one benchmark with the
// checkpoint store off, attached-but-cold, warmed from the previous pass,
// and on a second store primed at stride 1, and requires all four Results
// to be bit-identical. The policies share the "cold" store in sequence,
// as a sweep does, so with more than one policy some cold run must skip
// on an earlier policy's trajectory records; the warmed passes must hit,
// the stride-1 store more often, so none passes vacuously.
func CheckpointEquivalence(bench string, opts core.Options, policies []sampling.Policy) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	withStore, withFine := opts, opts
	withStore.Ckpt, withFine.Ckpt, withFine.CkptStride = ckpt.NewMemory(), ckpt.NewMemory(), 1
	core.NewSession(spec, withFine).FastForwardVia(^uint64(0)) // to the end of the budget
	var coldSkips uint64
	err = comparePolicies("checkpoint equivalence", bench, opts, policies, func() []variant {
		before := withStore.Ckpt.Stats().Skips
		tally := func() error { coldSkips += withStore.Ckpt.Stats().Skips - before; return nil }
		return []variant{{label: "cold store", opts: withStore, vacuous: tally}, {label: "warm store", opts: withStore}, {label: "warm stride-1 store", opts: withFine}}
	})
	if err != nil {
		return err
	}
	st := withStore.Ckpt.Stats()
	if st.Puts == 0 {
		return fmt.Errorf("check: %s: no policy deposited a checkpoint", bench)
	}
	if coldSkips == 0 && len(policies) != 1 {
		return fmt.Errorf("check: %s: no policy's cold-store run skipped an interval an earlier policy ran (vacuous): %+v", bench, st)
	}
	if st.Hits == 0 {
		return fmt.Errorf("check: %s: warmed policies never hit the store (vacuous equivalence): %+v", bench, st)
	}
	if f := withFine.Ckpt.Stats(); f.Hits <= st.Hits {
		return fmt.Errorf("check: %s: the stride-1 store took %d fast hits, no more than the default stride's %d", bench, f.Hits, st.Hits)
	}
	return nil
}
