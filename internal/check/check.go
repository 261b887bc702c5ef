// Package check is the correctness harness for the simulator: a
// differential-execution and invariant-checking subsystem.
//
// Dynamic Sampling's premise is that the fast functional VM and the
// event-generating timing path execute the same guest program with
// identical architectural outcomes, and that snapshot/restore and
// replayed sessions reproduce runs bit-for-bit. This package proves
// those equivalences continuously instead of assuming them:
//
//   - Generate builds seeded random guest programs exercising branches,
//     paging, self-modifying code, syscalls, and device I/O;
//   - every program-level check is a set of lanes in one chunked
//     lockstep loop against a reference machine in fast mode (nil Sink),
//     each lane compared with it in full — PC, registers, memory page by
//     page, disk, console, phase log and every vm.Stats field — at every
//     sync point. Lockstep's lane runs in event mode and also validates
//     the event stream against the statistics; ReplayDeterminism's is a
//     second fast machine that takes and drops a snapshot at sync steps
//     2^k−1; SnapshotRoundTrip's and SerializedRoundTrip's swap their
//     machine at those steps for a fresh one restored from a snapshot of
//     it (through the wire format for the latter), beside that replay
//     lane; ChunkAgreement's runs each chunk as one-instruction Runs.
//     CheckProgram runs all of them in one pass;
//   - PolicyDeterminism replays full sampling sessions and requires
//     every policy (FullTiming, SMARTS, SimPoint, Dynamic) to produce
//     bit-identical Results.
//
// Every check has one shape — run a reference, run its variants,
// require equality, require that the run was not vacuous — and the
// package holds that shape once per granularity: lockstep for generated
// programs, comparePolicies for sampling results, compareArtifacts for
// rendered bundles, distSweep.Run for distributed sweeps. DESIGN.md §7
// tabulates the legs.
//
// A reported Divergence carries the first differing field and a
// disassembled window around the PC where the runs disagreed, so a
// failure is directly actionable: re-run cmd/diffcheck with the same
// seed to reproduce it.
package check

import (
	"fmt"

	"repro/internal/vm"
)

// Options configures the differential checks. Its zero value is the
// standard configuration (DefaultOptions).
type Options struct {
	// Chunk is the sync-point granularity in instructions (default 509;
	// deliberately prime and smaller than most loops so chunk
	// boundaries land mid-block and exercise the DBT resume path).
	Chunk uint64
	// MaxInstr bounds any single run; a generated program that has not
	// halted by then is reported as an error (default 2M).
	MaxInstr uint64
	// VM configures the machines under test. The zero value selects a
	// small span/TLB/TC configuration sized to the generated programs
	// so TLB conflicts and translation-cache flushes actually occur.
	VM vm.Config
	// Hook, when non-nil, runs after every sync point of every program
	// leg with the reference machine and the first machine compared
	// against it (in CheckProgram, Lockstep's event-mode machine). Tests
	// use it to inject faults into one machine and prove the differ
	// reports them.
	Hook func(step int, ref, other *vm.Machine)
}

// DefaultOptions returns the standard configuration for checking
// generated programs: the zero Options with its defaults filled in.
func DefaultOptions() Options {
	var o Options
	o.setDefaults()
	return o
}

func (o *Options) setDefaults() {
	if o.Chunk == 0 {
		o.Chunk = 509
	}
	if o.MaxInstr == 0 {
		o.MaxInstr = 2 << 20
	}
	if o.VM.MemSpan == 0 {
		o.VM = GenVMConfig()
	}
}

// Divergence reports the first disagreement a differential check found.
type Divergence struct {
	Check string // which check reported it
	Seed  uint64 // generator seed (0 when not from a generated program)
	Step  int    // sync-point index within the check
	Instr uint64 // instructions executed at the sync point
	Field string // first differing field
	A, B  string // rendered values from the two runs
	// Window is a disassembled window around the PC of the first run at
	// the divergence point.
	Window string
}

// Error implements error with a multi-line, actionable report.
func (d *Divergence) Error() string {
	return fmt.Sprintf(
		"check: %s divergence (seed=%d step=%d instr=%d)\n  field: %s\n  run A: %s\n  run B: %s\n%s",
		d.Check, d.Seed, d.Step, d.Instr, d.Field, d.A, d.B, d.Window)
}

// ProgramReport summarises a clean CheckProgram pass.
type ProgramReport struct {
	Seed   uint64
	Instr  uint64 // instructions the program executes to completion
	Checks []string
}

// CheckProgram generates the program for seed and runs every
// program-level differential check against it, in one lockstep pass
// whose lanes are every program leg's but BatchInvariance's; at a Chunk
// of 1 it leaves out ChunkAgreement's, which would compare nothing
// there. It returns a nil Divergence and nil error when all checks pass.
func CheckProgram(seed uint64, o Options) (*ProgramReport, *Divergence, error) {
	prog := Generate(seed)
	mk := []func(*Program, Options) *lane{eventLane, restoreLane, wireLane, replayLane}
	if o.Chunk != 1 {
		mk = append(mk, chunksLane)
	}
	checks, div, instr, err := leg(prog, o, mk...)
	if div != nil || err != nil {
		return nil, div, err
	}
	return &ProgramReport{Seed: seed, Instr: instr, Checks: checks}, nil, nil
}
