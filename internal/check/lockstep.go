package check

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// lane is one machine of a lockstep run, how it advances and what it
// checks besides agreeing with the reference.
type lane struct {
	// check is the Check name a divergence of this lane is reported
	// under.
	check string
	// label names the lane in a Divergence's field ("" where check alone
	// says which lane disagreed with the reference).
	label string
	m     *vm.Machine
	sink  vm.Sink // nil runs the lane in fast mode
	// count is what sink has delivered so far; nil when the lane counts
	// nothing.
	count *vm.CountingSink
	// stepwise runs each chunk as Run calls of one instruction.
	stepwise bool
	// swap, when non-nil, runs at sync steps 2^k−1, before the lane is
	// compared, and returns the machine the lane continues on.
	swap func(m *vm.Machine, cfg vm.Config) (*vm.Machine, error)
	// invariant, when non-nil, checks at every sync point what the lane
	// alone knows, after it is compared.
	invariant func() (field, a, b string, ok bool)
}

// load returns a fresh machine with prog loaded.
func load(prog *Program, cfg vm.Config) *vm.Machine {
	m := vm.New(cfg)
	m.Load(prog.Image)
	return m
}

// counting sends the lane's events into a vm.CountingSink.
func (l *lane) counting() *lane {
	l.count = &vm.CountingSink{}
	l.sink = l.count
	return l
}

// advance runs the lane's machine for one chunk of up to n instructions
// and returns how many it executed.
func (l *lane) advance(n uint64) uint64 {
	if !l.stepwise {
		return l.m.Run(n, l.sink)
	}
	var done uint64
	for done < n && l.m.Run(1, l.sink) == 1 {
		done++
	}
	return done
}

// fastLane is the reference of every program leg but BatchInvariance:
// a machine in fast mode, one Run per chunk.
func fastLane(prog *Program, o Options) *lane {
	return &lane{m: load(prog, o.VM)}
}

// eventLane is Lockstep's: the same image in event mode into a
// vm.CountingSink, whose counts must reconcile with the machine's own
// statistics at every sync point. Per-instruction events are the ground
// truth the timing path consumes, so their class counts must match the
// counters Dynamic Sampling monitors.
func eventLane(prog *Program, o Options) *lane {
	l := (&lane{check: "lockstep", m: load(prog, o.VM)}).counting()
	l.invariant = func() (field, a, b string, ok bool) {
		st, sink := l.m.Stats(), l.count
		for _, inv := range []struct {
			name   string
			events uint64
			stat   uint64
		}{
			{"events delivered", sink.Total, st.Instructions},
			{"branch events", sink.ByClass[isa.ClassBranch], st.Branches},
			{"load events", sink.ByClass[isa.ClassLoad], st.MemReads},
			{"store events", sink.ByClass[isa.ClassStore], st.MemWrites},
			{"sys events", sink.ByClass[isa.ClassSys], st.Syscalls},
		} {
			if inv.events != inv.stat {
				return "event stream vs stats: " + inv.name, fmt.Sprint(inv.events), fmt.Sprint(inv.stat), false
			}
		}
		return "", "", "", true
	}
	return l
}

// replayLane is ReplayDeterminism's: a second fast machine, which takes
// and drops a snapshot at the sync steps where the restore lanes swap,
// because taking one must not perturb the run.
func replayLane(prog *Program, o Options) *lane {
	return &lane{check: "replay-determinism", m: load(prog, o.VM), swap: func(m *vm.Machine, _ vm.Config) (*vm.Machine, error) {
		m.Snapshot()
		return m, nil
	}}
}

// restoreLane is SnapshotRoundTrip's: it continues on a fresh machine
// restored from a snapshot of its own.
func restoreLane(prog *Program, o Options) *lane {
	return &lane{check: "snapshot-roundtrip", m: load(prog, o.VM), swap: func(m *vm.Machine, cfg vm.Config) (*vm.Machine, error) {
		return restored(m.Snapshot(), cfg)
	}}
}

// wireLane is SerializedRoundTrip's: restoreLane with the snapshot
// pushed through WriteTo and ReadSnapshot.
func wireLane(prog *Program, o Options) *lane {
	return &lane{check: "serialized-roundtrip", m: load(prog, o.VM), swap: func(m *vm.Machine, cfg vm.Config) (*vm.Machine, error) {
		var buf bytes.Buffer
		if _, err := m.Snapshot().WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
		snap, err := vm.ReadSnapshot(&buf)
		if err != nil {
			return nil, fmt.Errorf("deserialize: %w", err)
		}
		return restored(snap, cfg)
	}}
}

// restored returns a fresh machine restored from s.
func restored(s *vm.Snapshot, cfg vm.Config) (*vm.Machine, error) {
	m := vm.New(cfg)
	return m, m.Restore(s)
}

// chunksLane is ChunkAgreement's: every chunk as Run calls of one
// instruction.
func chunksLane(prog *Program, o Options) *lane {
	return &lane{check: "chunk-agreement", m: load(prog, o.VM), stepwise: true}
}

// lockstep is the one chunked loop behind every program-level check. It
// runs every lane o.Chunk instructions at a time, the first lane being
// the reference, and at each sync point requires of every other lane,
// after its swap where the step is 2^k−1, the same instruction count,
// the same complete machine state (diff) and — where both lanes count
// their events — the same delivered counts; then each lane's invariant
// must hold. The first disagreement is returned as a Divergence under
// the lane's check name with a window around the reference's PC; a
// reference that halts ends the run cleanly, one that stalls or passes
// o.MaxInstr ends it with an error, and so does a swap that fails. It
// also returns the instructions the reference executed.
func lockstep(prog *Program, o Options, lanes []*lane) (*Divergence, uint64, error) {
	ref := lanes[0]
	var total uint64
	for step := 0; ; step++ {
		na := ref.advance(o.Chunk)
		total += na
		report := func(l *lane, field string, a, b interface{}) (*Divergence, uint64, error) {
			return &Divergence{
				Check: l.check, Seed: prog.Seed, Step: step, Instr: total,
				Field: field, A: fmt.Sprint(a), B: fmt.Sprint(b),
				Window: DisasmWindow(ref.m, ref.m.PC(), 6, 6),
			}, total, nil
		}
		for i, l := range lanes {
			if i > 0 {
				vs := ""
				if l.label != "" {
					vs = " (" + ref.label + " vs " + l.label + ")"
				}
				if nb := l.advance(o.Chunk); na != nb {
					return report(l, "instructions executed in chunk"+vs, na, nb)
				}
				if l.swap != nil && step&(step+1) == 0 {
					m, err := l.swap(l.m, o.VM)
					if err != nil {
						return nil, total, fmt.Errorf("check: %s swap at step %d failed (seed=%d): %w", l.check, step, prog.Seed, err)
					}
					l.m = m
				}
				if field, av, bv, ok := diff(ref.m, l.m); !ok {
					return report(l, field+vs, av, bv)
				}
				if ref.count != nil && l.count != nil {
					if ref.count.Total != l.count.Total {
						return report(l, "events delivered"+vs, ref.count.Total, l.count.Total)
					}
					for cls := range ref.count.ByClass {
						if ref.count.ByClass[cls] != l.count.ByClass[cls] {
							return report(l, fmt.Sprintf("class %d events%s", cls, vs), ref.count.ByClass[cls], l.count.ByClass[cls])
						}
					}
				}
			}
			if l.invariant != nil {
				if field, av, bv, ok := l.invariant(); !ok {
					return report(l, field, av, bv)
				}
			}
		}
		if done, err := chunkEnd(ref.m, na, total, o.MaxInstr, prog.Seed); done || err != nil {
			return nil, total, err
		}
		if o.Hook != nil {
			o.Hook(step, ref.m, lanes[1].m)
		}
	}
}

// chunkEnd is the epilogue of every chunk a check runs: done once m has
// halted, an error when the chunk of n instructions executed nothing or
// the run's total passed budget.
func chunkEnd(m *vm.Machine, n, total, budget, seed uint64) (done bool, err error) {
	switch {
	case m.Halted():
		return true, nil
	case n == 0:
		return false, fmt.Errorf("check: program stalled at instr %d without halting (seed=%d)", total, seed)
	case total > budget:
		return false, fmt.Errorf("check: program did not halt within %d instructions (seed=%d)", budget, seed)
	}
	return false, nil
}

// leg runs prog in lockstep through the fast reference lane and one
// lane from each constructor. It returns the check names of those lanes
// beside lockstep's results.
func leg(prog *Program, o Options, mk ...func(*Program, Options) *lane) ([]string, *Divergence, uint64, error) {
	o.setDefaults()
	lanes := []*lane{fastLane(prog, o)}
	var checks []string
	for _, f := range mk {
		l := f(prog, o)
		lanes = append(lanes, l)
		checks = append(checks, l.check)
	}
	div, instr, err := lockstep(prog, o, lanes)
	return checks, div, instr, err
}

// Lockstep runs prog through two machines — fast mode (nil Sink) and
// event-generating mode (counting Sink) — in chunks of o.Chunk
// instructions, comparing the complete machine state at every sync
// point and cross-checking the event stream against the VM's internal
// statistics.
//
// It returns the first divergence (nil if none) and the number of
// instructions the program executed.
func Lockstep(prog *Program, o Options) (*Divergence, uint64, error) {
	_, div, instr, err := leg(prog, o, eventLane)
	return div, instr, err
}

// SnapshotRoundTrip checks the VM's snapshot/restore machinery: a lane
// that, at sync steps 2^k−1, continues on a fresh machine restored from
// a snapshot of its own must agree with an uninterrupted run at every
// sync point, every statistic included, and so must a lane that takes
// the same snapshots and drops them (taking one must not perturb the
// guest).
func SnapshotRoundTrip(prog *Program, o Options) (*Divergence, error) {
	_, div, _, err := leg(prog, o, restoreLane, replayLane)
	return div, err
}

// SerializedRoundTrip is SnapshotRoundTrip with every snapshot pushed
// through WriteTo / ReadSnapshot before it is restored: machine state
// must survive the checkpoint store's persistence path bit-for-bit.
func SerializedRoundTrip(prog *Program, o Options) (*Divergence, error) {
	_, div, _, err := leg(prog, o, wireLane, replayLane)
	return div, err
}

// ReplayDeterminism runs prog twice through identically configured and
// identically partitioned machines and requires bit-identical state at
// every sync point, the second taking and dropping a snapshot at sync
// steps 2^k−1. This catches hidden nondeterminism (map-iteration
// effects, uninitialised state, host-time leakage) and a snapshot that
// perturbs the machine it was taken from.
func ReplayDeterminism(prog *Program, o Options) (*Divergence, error) {
	_, div, _, err := leg(prog, o, replayLane)
	return div, err
}

// ErrOneInstructionChunk is ChunkAgreement's error at a Chunk of 1,
// where its lane would run the reference's own partition and compare
// nothing.
var ErrOneInstructionChunk = errors.New("check: chunk-agreement needs a chunk above 1 (at 1 its lane runs the reference's own partition)")

// ChunkAgreement runs prog once in chunks of o.Chunk and once with
// every instruction its own Run, and requires everything to agree at
// every sync point, every statistic included: the Machine.Run contract
// says the machine's state is independent of how a long run is
// partitioned, and this check enforces it. At a Chunk of 1 it returns
// ErrOneInstructionChunk.
func ChunkAgreement(prog *Program, o Options) (*Divergence, error) {
	if o.Chunk == 1 {
		return nil, ErrOneInstructionChunk
	}
	_, div, _, err := leg(prog, o, chunksLane)
	return div, err
}
