package check

import (
	"bytes"
	"fmt"

	"repro/internal/vm"
)

// chunkEnd is the epilogue of every chunk a check runs: done once m has
// halted, an error when the chunk of n instructions executed nothing or
// the run's total passed budget. what names the run in the stall error.
func chunkEnd(what string, m *vm.Machine, n, total, budget, seed uint64) (done bool, err error) {
	switch {
	case m.Halted():
		return true, nil
	case n == 0:
		return false, fmt.Errorf("check: %s stalled at instr %d without halting (seed=%d)", what, total, seed)
	case total > budget:
		return false, fmt.Errorf("check: program did not halt within %d instructions (seed=%d)", budget, seed)
	}
	return false, nil
}

// runToHalt drives m in chunks until it halts, returning instructions
// executed; errors if the budget is exhausted first.
func runToHalt(m *vm.Machine, chunk, budget uint64, seed uint64) (uint64, error) {
	var total uint64
	for {
		n := m.Run(chunk, nil)
		total += n
		if done, err := chunkEnd("run", m, n, total, budget, seed); done || err != nil {
			return total, err
		}
	}
}

// SnapshotRoundTrip checks the VM's snapshot/restore machinery against
// an uninterrupted run:
//
//  1. an uninterrupted machine runs prog to completion;
//  2. a second machine runs halfway, snapshots, and continues — its
//     final state must match (taking a snapshot must not perturb the
//     guest);
//  3. the snapshot is restored into a *fresh* machine whose state right
//     after the restore must match the snapshot point bit-for-bit, and
//     whose resumed run must reach the same final state.
//
// Comparisons use architectural state and partition-insensitive
// statistics: the VM documents that translation-cache and
// instruction-TLB bookkeeping may differ after a restore (the DBT
// retranslates), and the checker enforces that *only* those may.
func SnapshotRoundTrip(prog *Program, o Options) (*Divergence, error) {
	return roundTrip(prog, o, false)
}

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
	return roundTrip(prog, o, true)
}

// roundTrip is the one snapshot round trip. serialized pushes the
// snapshot through its wire format and, with it, makes the comparisons
// between the donor and the restored machine strict (host bookkeeping
// statistics included); comparisons with the uninterrupted run, whose
// partitioning differs from the donor's, are architectural either way.
func roundTrip(prog *Program, o Options, serialized bool) (*Divergence, error) {
	o.setDefaults()
	check := "snapshot-roundtrip"
	if serialized {
		check = "serialized-roundtrip"
	}

	// Uninterrupted reference run.
	ref := load(prog, o.VM)
	total, err := runToHalt(ref, o.Chunk, o.MaxInstr, prog.Seed)
	if err != nil {
		return nil, err
	}
	final := capture(ref, false)

	// Donor: run to roughly the midpoint, snapshot, then continue.
	snapAt := total / 2
	donor := load(prog, o.VM)
	var executed uint64
	for executed < snapAt && !donor.Halted() {
		n := o.Chunk
		if executed+n > snapAt {
			n = snapAt - executed
		}
		executed += donor.Run(n, nil)
	}
	snap := donor.Snapshot()
	if serialized {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("check: serialize failed (seed=%d): %v", prog.Seed, err)
		}
		if snap, err = vm.ReadSnapshot(&buf); err != nil {
			return nil, fmt.Errorf("check: deserialize failed (seed=%d): %v", prog.Seed, err)
		}
	}
	atSnap := capture(donor, serialized)

	differs := func(step int, m *vm.Machine, what string, hostStats bool, want machineState) *Divergence {
		field, av, bv, ok := capture(m, hostStats).diff(want)
		if ok {
			return nil
		}
		return diverged(check, prog.Seed, m, step, executed, what+": "+field, av, bv)
	}

	if _, err := runToHalt(donor, o.Chunk, o.MaxInstr, prog.Seed); err != nil {
		return nil, err
	}
	if div := differs(1, donor, "snapshot perturbed the run", false, final); div != nil {
		return div, nil
	}
	donorFinal := capture(donor, true)

	// Restore into a fresh machine and resume with the donor's
	// partitioning.
	fresh := vm.New(o.VM)
	if err := fresh.Restore(snap); err != nil {
		return nil, fmt.Errorf("check: restore failed (seed=%d): %v", prog.Seed, err)
	}
	if div := differs(2, fresh, "state after restore", serialized, atSnap); div != nil {
		return div, nil
	}
	if _, err := runToHalt(fresh, o.Chunk, o.MaxInstr, prog.Seed); err != nil {
		return nil, err
	}
	// Against the donor, host statistics included, which only the wire
	// format promises; architecturally step 1 made donor and uninterrupted
	// run one state, so step 4 covers both legs.
	if serialized {
		if div := differs(3, fresh, "resumed run diverged from its donor", true, donorFinal); div != nil {
			return div, nil
		}
	}
	return differs(4, fresh, "resumed run diverged from the uninterrupted run", false, final), nil
}
