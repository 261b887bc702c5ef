package check

import (
	"bytes"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/vm"
)

// SerializedRoundTrip checks the checkpoint store's persistence path:
// machine state must survive serialization bit-for-bit. It is the
// strict sibling of SnapshotRoundTrip — because a serialized snapshot
// captures the translation-cache block set, the comparisons here
// include the full statistics record (translation-cache and TLB
// counters included), not the partition-normalised subset:
//
//  1. a machine runs halfway, snapshots, and the snapshot is pushed
//     through WriteTo / ReadSnapshot;
//  2. restoring the decoded snapshot into a fresh machine must
//     reproduce the snapshot-point state exactly, statistics included;
//  3. resuming the fresh machine with the donor's partitioning must
//     reach the donor's final state exactly, statistics included —
//     and, architecturally, the state of an uninterrupted run.
func SerializedRoundTrip(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()

	report := func(m *vm.Machine, step int, instr uint64, field, av, bv string) *Divergence {
		return &Divergence{
			Check: "serialized-roundtrip", Seed: prog.Seed, Step: step, Instr: instr,
			Field: field, A: av, B: bv,
			Window: DisasmWindow(m, m.PC(), 6, 6),
		}
	}

	// Uninterrupted reference (its partitioning differs from the donor's,
	// so it is only comparable architecturally).
	ref := vm.New(o.VM)
	ref.Load(prog.Image)
	total, err := runToHalt(ref, o.Chunk, o.MaxInstr, prog.Seed)
	if err != nil {
		return nil, err
	}
	final := capture(ref, false)

	// Donor: run halfway, snapshot, serialize, decode.
	snapAt := total / 2
	donor := vm.New(o.VM)
	donor.Load(prog.Image)
	var executed uint64
	for executed < snapAt && !donor.Halted() {
		n := o.Chunk
		if executed+n > snapAt {
			n = snapAt - executed
		}
		executed += donor.Run(n, nil)
	}
	var buf bytes.Buffer
	if _, err := donor.Snapshot().WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("check: serialize failed (seed=%d): %v", prog.Seed, err)
	}
	decoded, err := vm.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("check: deserialize failed (seed=%d): %v", prog.Seed, err)
	}
	atSnap := capture(donor, true)
	if _, err := runToHalt(donor, o.Chunk, o.MaxInstr, prog.Seed); err != nil {
		return nil, err
	}
	donorFinal := capture(donor, true)

	// Fresh machine from the decoded snapshot: exact at the snapshot
	// point, exact after resuming with the donor's partitioning.
	fresh := vm.New(o.VM)
	if err := fresh.Restore(decoded); err != nil {
		return nil, fmt.Errorf("check: restore of decoded snapshot failed (seed=%d): %v", prog.Seed, err)
	}
	if field, av, bv, ok := capture(fresh, true).diff(atSnap); !ok {
		return report(fresh, 1, executed, "state after serialized restore: "+field, av, bv), nil
	}
	if _, err := runToHalt(fresh, o.Chunk, o.MaxInstr, prog.Seed); err != nil {
		return nil, err
	}
	if field, av, bv, ok := capture(fresh, true).diff(donorFinal); !ok {
		return report(fresh, 2, executed, "resume from serialized snapshot diverged: "+field, av, bv), nil
	}
	if field, av, bv, ok := capture(fresh, false).diff(final); !ok {
		return report(fresh, 3, executed, "resume diverged from uninterrupted run: "+field, av, bv), nil
	}
	return nil, nil
}

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
