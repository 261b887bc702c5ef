// Package sampling implements the sampling policies the paper compares:
// full timing simulation, SMARTS systematic sampling with functional
// warming, and the paper's contribution, Dynamic Sampling (Algorithm 1).
// SimPoint lives in internal/simpoint (it needs the clustering stack)
// but satisfies the same Policy interface.
//
// A policy schedules a Session's execution modes over the benchmark's
// instruction budget, and one Driver executes the schedule and produces
// the Result: an IPC estimate plus the modelled host cost of obtaining
// it.
package sampling

import (
	"math"

	"repro/internal/core"
	"repro/internal/hostcost"
	"repro/internal/stats"
)

// Policy is one sampling strategy.
type Policy interface {
	// Name returns the policy's display name (paper terminology, e.g.
	// "SMARTS" or "CPU-300-1M-10").
	Name() string
	// Run drives the session from start to budget exhaustion and
	// returns the measurement.
	Run(s *core.Session) (Result, error)
}

// IntervalTrace records one base interval of a traced run (used for the
// paper's Figures 2 and 4).
type IntervalTrace struct {
	Index uint64
	IPC   float64
	// Monitored VM statistic deltas for the interval.
	TCInvalidations uint64
	Exceptions      uint64
	IOOps           uint64
}

// Result is the outcome of running a policy on a session.
type Result struct {
	Policy string
	Bench  string

	// EstIPC is the policy's IPC estimate (instruction-weighted, à la
	// SimPoint, as the paper computes it).
	EstIPC float64

	// Instructions is the number of guest instructions the benchmark
	// executed (budget or natural completion).
	Instructions uint64

	// Samples is the number of timing measurements taken.
	Samples int

	// CPIInterval is the CPI point estimate with its confidence
	// interval, reported by the statistical policies (SMARTS,
	// Stratified, RankedSet) once they hold a finite bound; nil
	// otherwise. A pointer with omitempty so journals and artifacts
	// from the other policies carry no interval at all.
	CPIInterval *stats.Interval `json:",omitempty"`

	// TargetMet reports whether an error-targeting run reached its
	// requested interval width within the sample budget (always false
	// when no target was set).
	TargetMet bool `json:",omitempty"`

	// Detections records where Dynamic Sampling detected a phase
	// change: the base interval (index on the IntervalLen grid, as in
	// Trace and SimPoint's points) in which the triggering interval
	// ended. Empty for other policies.
	Detections []uint64

	// Trace holds per-interval records when tracing was requested.
	Trace []IntervalTrace

	// Cost is the modelled host cost report.
	Cost hostcost.Report
}

// Speedup returns how much faster this run was than a full-timing
// baseline cost.
func (r Result) Speedup(baseline Result) float64 {
	if r.Cost.Units == 0 {
		return 0
	}
	return baseline.Cost.Units / r.Cost.Units
}

// ErrorVs returns the relative IPC error against a baseline (fraction,
// not percent).
func (r Result) ErrorVs(baseline Result) float64 {
	if baseline.EstIPC == 0 {
		return 0
	}
	e := r.EstIPC/baseline.EstIPC - 1
	if e < 0 {
		e = -e
	}
	return e
}

// Estimator accumulates the cumulative IPC: each timing sample's IPC is
// extrapolated over the functional phase that follows it ("we weight the
// average IPC of the last timing phase with the duration of the current
// functional simulation phase, à la SimPoint"). Functional execution
// before the first sample is attributed to the first sample.
//
// The accumulation is done in cycle space — the estimator reconstructs
// total execution cycles and reports instructions/cycles — so that the
// estimate is consistent regardless of measurement granularity. (A plain
// instruction-weighted arithmetic mean of interval IPCs is biased upward
// for policies with short sampling units, because the arithmetic mean of
// sub-interval IPCs exceeds the IPC of the combined interval whenever
// IPC varies within it.)
type Estimator struct {
	instrs  float64
	cycles  float64
	last    float64
	hasLast bool
	pending float64
}

// Sample records a timing measurement of ipc over instr instructions.
// It reports whether the measurement was recorded: zero-instruction
// intervals and non-positive or non-finite IPCs are rejected, so a
// caller counting samples can count only intervals that actually
// contributed. (The non-finite guard matters: `ipc <= 0` is false for
// NaN, so an unguarded NaN — e.g. 0/0 from a core that retired nothing
// — would silently poison the cycle accumulator and surface as a NaN
// estimate, which the JSON journal rejects.)
func (e *Estimator) Sample(ipc float64, instr uint64) bool {
	if instr == 0 || !(ipc > 0) || math.IsInf(ipc, 1) {
		return false
	}
	if !e.hasLast && e.pending > 0 {
		e.instrs += e.pending
		e.cycles += e.pending / ipc
		e.pending = 0
	}
	e.last = ipc
	e.hasLast = true
	e.instrs += float64(instr)
	e.cycles += float64(instr) / ipc
	return true
}

// Functional records instr instructions executed without timing; their
// cycles are extrapolated from the last sample's IPC.
func (e *Estimator) Functional(instr uint64) {
	if instr == 0 {
		return
	}
	if e.hasLast {
		e.instrs += float64(instr)
		e.cycles += float64(instr) / e.last
	} else {
		e.pending += float64(instr)
	}
}

// IPC returns the cumulative estimate. An estimator that never
// recorded a sample — a guest that halted before its first detailed
// interval, with only functional weight pending — reports 0, never
// NaN: callers journal this value and non-finite JSON is banned.
func (e *Estimator) IPC() float64 {
	if e.cycles == 0 || math.IsNaN(e.cycles) {
		return 0
	}
	return e.instrs / e.cycles
}
