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
//   - Lockstep runs one image through two machines — fast mode (nil
//     Sink) vs event-generating mode — in bounded chunks and compares
//     PC, registers, memory digest, devices, and vm.Stats at every sync
//     point, also validating the event stream against the internal
//     statistics;
//   - SnapshotRoundTrip snapshots mid-run, restores into a fresh
//     machine, resumes, and requires the final architectural state to
//     be identical to an uninterrupted run (and the snapshot itself to
//     be non-perturbing);
//   - ReplayDeterminism and ChunkAgreement require runs to be
//     reproducible and independent of how execution is partitioned
//     into Run calls;
//   - PolicyDeterminism replays full sampling sessions and requires
//     every policy (FullTiming, SMARTS, SimPoint, Dynamic) to produce
//     bit-identical Results.
//
// Every check has one shape — run a reference, run its variants,
// require equality, require that the run was not vacuous — and the
// package holds that shape once per granularity: lockstep and roundTrip
// for generated programs, comparePolicies for sampling results,
// compareArtifacts for rendered bundles, distSweep.Run for distributed
// sweeps. DESIGN.md §7 tabulates the legs.
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

// Options configures the differential checks.
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
	// CompareHostStats includes host-side bookkeeping statistics
	// (translation-cache and TLB counters) in lockstep and replay
	// comparisons. It defaults to true via DefaultOptions; fault-
	// injection tests disable it to demonstrate purely architectural
	// divergences.
	CompareHostStats bool
	// Hook, when non-nil, runs after every sync point of Lockstep,
	// ReplayDeterminism and BatchInvariance with the reference machine
	// and the first machine compared against it. Tests use it to inject
	// faults into one machine and prove the differ reports them.
	Hook func(step int, fast, event *vm.Machine)
}

// DefaultOptions returns the standard configuration for checking
// generated programs.
func DefaultOptions() Options {
	return Options{
		Chunk:            509,
		MaxInstr:         2 << 20,
		VM:               GenVMConfig(),
		CompareHostStats: true,
	}
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

// diverged builds the Divergence every program-level check reports: the
// window is disassembled around m's PC.
func diverged(check string, seed uint64, m *vm.Machine, step int, instr uint64, field, a, b string) *Divergence {
	return &Divergence{
		Check: check, Seed: seed, Step: step, Instr: instr,
		Field: field, A: a, B: b,
		Window: DisasmWindow(m, m.PC(), 6, 6),
	}
}

// ProgramReport summarises a clean CheckProgram pass.
type ProgramReport struct {
	Seed   uint64
	Instr  uint64 // instructions the program executes to completion
	Checks []string
}

// programChecks is what CheckProgram runs once Lockstep has passed, by
// the name ProgramReport.Checks lists.
var programChecks = []struct {
	name  string
	check func(*Program, Options) (*Divergence, error)
}{
	{"snapshot-roundtrip", SnapshotRoundTrip},
	{"serialized-roundtrip", SerializedRoundTrip},
	{"replay-determinism", ReplayDeterminism},
	{"chunk-agreement", ChunkAgreement},
}

// CheckProgram generates the program for seed and runs every
// program-level differential check against it. It returns a nil
// Divergence and nil error when all checks pass.
func CheckProgram(seed uint64, o Options) (*ProgramReport, *Divergence, error) {
	prog := Generate(seed)
	div, instr, err := Lockstep(prog, o)
	if div != nil || err != nil {
		return nil, div, err
	}
	rep := &ProgramReport{Seed: seed, Instr: instr, Checks: []string{"lockstep"}}
	for _, c := range programChecks {
		if div, err := c.check(prog, o); div != nil || err != nil {
			return nil, div, err
		}
		rep.Checks = append(rep.Checks, c.name)
	}
	return rep, nil, nil
}
