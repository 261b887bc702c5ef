// Package core couples the functional VM front-end with the timing
// simulator back-end — the paper's central mechanism. A Session owns one
// benchmark run: it loads the generated guest program into a VM, attaches
// a timing core, meters modelled host cost, and exposes the mode-switch
// operations sampling policies are built from:
//
//	RunFast        full-speed VM execution (no events)
//	RunFuncWarm    events feed cache/TLB/predictor warming only (SMARTS)
//	RunDetailWarm  events feed the detailed core, IPC not recorded
//	RunTimed       events feed the detailed core, interval IPC measured
//	RunProfile     events feed a caller-supplied profiler (SimPoint BBVs)
//
// Every operation advances the same guest through one burst body
// (Session.burst) — sampling policies differ only in how they schedule
// these modes over the instruction budget. One driver, sampling.Driver,
// turns every policy's schedule into these calls: a policy decides the
// steps, the driver runs them.
package core

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Options configures a Session.
type Options struct {
	// Scale divides the paper's instruction budgets (default 20000).
	Scale int
	// VM overrides the VM configuration.
	VM vm.Config
	// Ckpt attaches a checkpoint store, shared across sessions: the
	// session deposits trajectory records and snapshots at canonical
	// interval boundaries and transparently skips fast-mode intervals
	// whose end is stored. Results and modelled paper cost are unchanged
	// (see ckpt.go); only host wall-clock shrinks. Nil disables
	// checkpointing.
	Ckpt *ckpt.Store
	// CkptStride, when non-zero, adds a snapshot every CkptStride base
	// intervals to the ones a session takes where it leaves fast mode
	// (0: none). Records go beside every snapshot and after fast bursts.
	CkptStride uint64
	// Obs mirrors execution into a metrics registry (per-mode
	// instruction/stat/wall-clock counters, checkpoint restore timings,
	// host-cost charges). Purely observational: simulation results are
	// bit-identical with it attached or nil (check.ObsInvariance).
	Obs *obs.Registry
	// Trace records every execution-mode transition (fast↔event↔detail)
	// with instruction position, trigger-statistic deltas and wall-clock
	// residency. Nil disables tracing; independent of Obs.
	Trace *obs.TransitionTrace
	// Context, when non-nil, bounds stepping: once cancelled, every Run
	// method returns 0 promptly and Interrupted() reports the cause.
	// Results produced after cancellation are partial and must be
	// discarded by the caller.
	Context context.Context
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 20_000
	}
}

// Session is one benchmark run: VM + timing core + cost meter.
type Session struct {
	spec workload.Spec
	opts Options

	img  *asm.Image
	plan *workload.Plan

	machine *vm.Machine
	core    *timing.Core
	meter   *hostcost.Meter

	total    uint64
	interval uint64
	executed uint64
	lastMode hostcost.Mode

	// Observability and cancellation (see obs.go).
	ob          *sessionObs
	ctx         context.Context
	interrupted bool

	// Checkpoint participation (see ckpt.go).
	ckpt      *ckpt.Store
	ckptEvery uint64      // snapshot grid in instructions, 0 for none
	wlHash    uint64      // workload-identity hash for checkpoint keys
	canonical bool        // still on the canonical interval partitioning
	ahead     bool        // skips moved the session past its machine
	rec       ckpt.Record // the monitored statistics at executed, when ahead
}

// NewSession builds a session for one suite benchmark.
func NewSession(spec workload.Spec, opts Options) *Session {
	opts.setDefaults()
	total := spec.ScaledInstr(opts.Scale)
	interval := workload.DefaultIntervalLen(total)
	img, plan := workload.Build(spec, total, interval)
	s := &Session{
		spec:     spec,
		opts:     opts,
		plan:     plan,
		total:    total,
		interval: interval,
		meter:    hostcost.NewMeter(costTable(opts.Scale)),
		img:      img,
		ctx:      opts.Context,
	}
	s.ob = newSessionObs(opts.Obs, opts.Trace, spec.Name)
	s.meter.SetObs(opts.Obs)
	if opts.Ckpt != nil {
		s.ckpt = opts.Ckpt
		s.ckptEvery = opts.CkptStride * interval
		s.wlHash = workloadHash(img.Digest(), total, interval, opts.VM)
	}
	s.Reset()
	return s
}

// costTable is the calibrated host-cost table at a workload scale.
func costTable(scale int) hostcost.CostTable {
	t := hostcost.DefaultCosts()
	// A checkpoint restore is a fixed real-world cost (~2 s of host
	// time for a memory image), independent of the workload scale; the
	// unit charge must therefore grow as the workload shrinks so the
	// extrapolated paper-equivalent time stays constant.
	t.RestoreOverhead = 2.0 / 1e-9 / t.NsPerUnit / float64(scale)
	return t
}

// Reset rewinds the session to the start of the benchmark with cold
// microarchitectural state. The host-cost meter is preserved: a policy
// that replays the guest (Stratified's refinement rounds) pays for every
// pass.
func (s *Session) Reset() {
	s.machine = vm.New(s.opts.VM)
	s.machine.Load(s.img)
	s.core = timing.NewCore(timing.DefaultConfig())
	s.executed = 0
	s.lastMode = hostcost.Fast
	s.canonical = true
	s.ahead = false
}

// Spec returns the benchmark being simulated.
func (s *Session) Spec() workload.Spec { return s.spec }

// Plan returns the generated workload's ground-truth plan.
func (s *Session) Plan() *workload.Plan { return s.plan }

// Machine exposes the VM, caught up with any skipped fast intervals.
func (s *Session) Machine() *vm.Machine { s.settle(); return s.machine }

// Core exposes the timing core.
func (s *Session) Core() *timing.Core { return s.core }

// Meter exposes the host-cost meter.
func (s *Session) Meter() *hostcost.Meter { return s.meter }

// Scale returns the workload scale divisor.
func (s *Session) Scale() int { return s.opts.Scale }

// IntervalLen returns the base sampling interval ("1M instructions" in
// paper terms).
func (s *Session) IntervalLen() uint64 { return s.interval }

// Total returns the instruction budget.
func (s *Session) Total() uint64 { return s.total }

// Executed returns instructions executed so far in this pass.
func (s *Session) Executed() uint64 { return s.executed }

// Remaining returns the unexecuted budget.
func (s *Session) Remaining() uint64 {
	if s.executed >= s.total {
		return 0
	}
	return s.total - s.executed
}

// Done reports whether the budget is exhausted or the guest halted.
func (s *Session) Done() bool {
	return s.executed >= s.total || s.halted()
}

// clamp limits a request to the remaining budget.
func (s *Session) clamp(n uint64) uint64 {
	if r := s.Remaining(); n > r {
		return r
	}
	return n
}

func (s *Session) charge(mode hostcost.Mode, n uint64) {
	if n == 0 {
		return
	}
	if mode != hostcost.Fast && mode != s.lastMode {
		s.meter.ChargeSwitch()
	}
	s.lastMode = mode
	s.meter.Charge(mode, n)
}

// ResetMeter replaces the cost meter with a fresh one. SimPoint uses it
// to meter its profiling and measurement passes separately: the paper's
// "SimPoint" bar is the second report, "SimPoint+prof" the sum of both.
func (s *Session) ResetMeter() {
	s.meter = hostcost.NewMeter(costTable(s.opts.Scale))
	s.meter.SetObs(s.opts.Obs)
}

// burst is the one body of the burst protocol every mode-switch
// operation goes through: refuse once the context is cancelled, clamp
// to the remaining budget, update the canonical-trajectory flag, observe
// the mode transition, skip a charged fast interval whose end is
// recorded, otherwise settle, deposit where the session leaves fast
// mode, run the machine under observation, charge the host cost, and
// deposit at a canonical boundary (a record after a fast burst, a
// record and a snapshot on the stride grid).
func (s *Session) burst(mode hostcost.Mode, n uint64, sink vm.Sink) uint64 {
	if s.stopped() {
		return 0
	}
	n = s.clamp(n)
	s.noteRun(n)
	s.ob.transition(s, mode)
	if mode == hostcost.Fast && s.fastHit(n) {
		return n
	}
	s.settle()
	if mode != hostcost.Fast && s.lastMode == hostcost.Fast {
		s.deposit(true) // where it leaves fast mode, see ckpt.go
	}
	ex := s.runObserved(mode, n, sink)
	s.charge(mode, ex)
	if grid := s.onGrid(); grid || mode == hostcost.Fast {
		s.deposit(grid)
	}
	return ex
}

// RunFast executes up to n instructions at full VM speed. With a
// checkpoint store attached, a canonical aligned interval whose end is
// already stored is skipped instead of executed (bit-identical
// statistics, identical charge; the machine catches up when read).
func (s *Session) RunFast(n uint64) uint64 {
	return s.burst(hostcost.Fast, n, nil)
}

// RunFuncWarm executes up to n instructions with functional warming:
// the event stream updates caches, TLBs and the branch predictor but no
// timing is modelled (SMARTS's inter-unit mode).
func (s *Session) RunFuncWarm(n uint64) uint64 {
	return s.burst(hostcost.FuncWarm, n, s.core.WarmSink())
}

// RunDetailWarm executes up to n instructions through the detailed core
// without recording a measurement (microarchitectural warm-up before a
// sample).
func (s *Session) RunDetailWarm(n uint64) uint64 {
	return s.burst(hostcost.DetailWarm, n, s.core)
}

// RunTimed executes up to n instructions through the detailed core and
// returns the measured IPC of the interval.
func (s *Session) RunTimed(n uint64) (ipc float64, executed uint64) {
	from := s.core.Marker()
	ex := s.burst(hostcost.Timing, n, s.core)
	return timing.IPC(from, s.core.Marker()), ex
}

// RunProfile executes up to n instructions delivering events to a
// caller-supplied profiler (charged at BBV-profiling cost).
func (s *Session) RunProfile(n uint64, sink vm.Sink) uint64 {
	return s.burst(hostcost.BBVProfile, n, sink)
}

// Monitored returns every monitored VM statistic, indexed by
// vm.Metric: the trajectory record while the session is ahead of its
// machine, so reading it between skipped intervals leaves them skipped.
func (s *Session) Monitored() ckpt.Record {
	if s.ahead {
		return s.rec
	}
	return ckpt.RecordOf(s.machine.Stats())
}

// Stat returns the current value of one monitored VM statistic (see
// Monitored).
func (s *Session) Stat(m vm.Metric) uint64 { return s.Monitored()[m] }

// String identifies the session.
func (s *Session) String() string {
	return fmt.Sprintf("session(%s, total=%d, L=%d, scale=%d)",
		s.spec.Name, s.total, s.interval, s.opts.Scale)
}
