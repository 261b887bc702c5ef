package check

import "fmt"

// ReplayDeterminism runs prog twice through identically configured and
// identically partitioned machines and requires bit-identical state at
// every sync point — including the host bookkeeping statistics, which
// ARE deterministic when the partitioning is fixed. This catches hidden
// nondeterminism (map-iteration effects, uninitialised state, host-time
// leakage) that the other checks could mask.
func ReplayDeterminism(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()
	lanes := []*lane{{m: load(prog, o.VM)}, {m: load(prog, o.VM)}}
	div, _, err := lockstep("replay-determinism", prog, o, lanes, nil)
	return div, err
}

// ChunkAgreement runs prog under two different Run partitionings
// (o.Chunk vs 3*o.Chunk+1) and requires the final architectural state
// and partition-insensitive statistics to agree: the Machine.Run
// contract says architectural behaviour is independent of how a long
// run is partitioned, and this check enforces it.
func ChunkAgreement(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()
	a := load(prog, o.VM)
	b := load(prog, o.VM)

	na, err := runToHalt(a, o.Chunk, o.MaxInstr, prog.Seed)
	if err != nil {
		return nil, err
	}
	nb, err := runToHalt(b, 3*o.Chunk+1, o.MaxInstr, prog.Seed)
	if err != nil {
		return nil, err
	}
	field, av, bv, ok := capture(a, false).diff(capture(b, false))
	if na != nb {
		field, av, bv, ok = "total instructions", fmt.Sprint(na), fmt.Sprint(nb), false
	}
	if ok {
		return nil, nil
	}
	return diverged("chunk-agreement", prog.Seed, a, 0, na, field, av, bv), nil
}
