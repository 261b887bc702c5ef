package check

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// CheckpointEquivalence replays every policy on one benchmark with the
// checkpoint store off, attached-but-cold, warmed from the previous pass,
// and on a second store primed at stride 1, and requires all four Results
// to be bit-identical. The policies share the "cold" store in sequence,
// as a sweep does, so with more than one policy some cold run must skip
// on an earlier policy's trajectory records; the warmed passes must hit.
// The stride-1 store holds a snapshot at every interval, so its runs
// must skip and hit, and every catch-up and dispatch must restore at its
// target and walk nothing: ckpt_catchup_instructions_total, on a
// registry attached to that variant alone, stays 0.
func CheckpointEquivalence(bench string, opts core.Options, policies []sampling.Policy) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	withStore, withFine := opts, opts
	withStore.Ckpt, withFine.Ckpt, withFine.CkptStride = ckpt.NewMemory(), ckpt.NewMemory(), 1
	primer := core.NewSession(spec, withFine)
	primer.FastForwardVia(^uint64(0)) // to the end of the budget
	primed := withFine.Ckpt.Stats()
	if want := primer.Executed() / primer.IntervalLen(); primed.Puts != want {
		return fmt.Errorf("check: %s: priming the stride-1 store deposited %d snapshots, want one per interval (%d)", bench, primed.Puts, want)
	}
	withFine.Obs = obs.NewRegistry() // inert: the Results compared do not change
	walked := withFine.Obs.Counter("ckpt_catchup_instructions_total")
	var coldSkips uint64
	err = comparePolicies("checkpoint equivalence", bench, opts, policies, func() []variant {
		before, fineWalked := withStore.Ckpt.Stats().Skips, walked.Value()
		tally := func() error { coldSkips += withStore.Ckpt.Stats().Skips - before; return nil }
		exact := func() error {
			if n := walked.Value() - fineWalked; n != 0 {
				return fmt.Errorf("catch-ups and dispatches walked %d instructions on the primed stride-1 store, want 0", n)
			}
			return nil
		}
		return []variant{{label: "cold store", opts: withStore, vacuous: tally}, {label: "warm store", opts: withStore}, {label: "warm stride-1 store", opts: withFine, vacuous: exact}}
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
	if f := withFine.Ckpt.Stats(); f.Skips == primed.Skips || f.Hits == primed.Hits {
		return fmt.Errorf("check: %s: after priming, the stride-1 store served %d skips and %d snapshot hits, want both (vacuous): %+v", bench, f.Skips-primed.Skips, f.Hits-primed.Hits, f)
	}
	return nil
}
