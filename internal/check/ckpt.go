package check

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sampling"
)

// CheckpointEquivalence replays every policy three times on one
// benchmark — checkpoint store off, attached-but-cold, and warmed from
// the previous pass — and requires all three Results to be
// bit-identical. It then requires the warmed pass to have actually hit
// the store, so the equivalence cannot pass vacuously.
func CheckpointEquivalence(bench string, opts core.Options, policies []sampling.Policy) error {
	store := ckpt.NewMemory()
	withStore := opts
	withStore.Ckpt = store
	err := comparePolicies("checkpoint equivalence", bench, opts, policies, func() []variant {
		return []variant{{label: "cold store", opts: withStore}, {label: "warm store", opts: withStore}}
	})
	if err != nil {
		return err
	}
	st := store.Stats()
	if st.Puts == 0 {
		return fmt.Errorf("check: %s: no policy deposited a checkpoint", bench)
	}
	if st.Hits+st.NearestHits == 0 {
		return fmt.Errorf("check: %s: warmed policies never hit the store (vacuous equivalence): %+v", bench, st)
	}
	return nil
}
