package core

// Session-side observability: per-mode instruction/stat/wall-clock
// accounting and the mode-transition trace. Everything here observes —
// reads machine statistics and the wall clock — and never feeds back
// into simulation state or the cost meter, so results are bit-identical
// with obs attached or not (check.ObsInvariance pins this). The VM's
// hot loop is untouched: per-mode statistics come from diffing
// Machine.Stats() around each Run call, which the sessions already do
// for the sampling policies.

import (
	"time"

	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/vm"
)

// sessionObs caches the session's metric handles so the per-Run
// overhead is a stats copy plus a handful of atomic adds. Sessions are
// single-goroutine, so the mutable fields need no locking; the handles
// themselves are shared across sessions and atomic.
type sessionObs struct {
	reg   *obs.Registry
	trace *obs.TransitionTrace
	bench string

	// Per-mode handles, indexed by hostcost.Mode.
	instr   [hostcost.NumModes]*obs.Counter
	wallNs  [hostcost.NumModes]*obs.Counter
	memAcc  [hostcost.NumModes]*obs.Counter
	tcInval [hostcost.NumModes]*obs.Counter
	excs    [hostcost.NumModes]*obs.Counter
	ioOps   [hostcost.NumModes]*obs.Counter
	flushes [hostcost.NumModes]*obs.Counter

	restores      *obs.Counter
	restoredInstr *obs.Counter
	restoreSecs   *obs.Histogram

	// Transition tracking: the mode observed last, the monitored
	// statistics and the time at the moment it was entered.
	mode       hostcost.Mode
	haveMode   bool
	transStats ckpt.Record
	transTime  time.Time

	// Per-Run pre-state captured by enter, consumed by exit.
	preStats   vm.Stats
	preFlushes uint64
}

// newSessionObs resolves the handle set; nil when observability is off
// entirely. reg may be nil with only a trace attached — the nil-safe
// handles then discard the counter side.
func newSessionObs(reg *obs.Registry, trace *obs.TransitionTrace, bench string) *sessionObs {
	if reg == nil && trace == nil {
		return nil
	}
	so := &sessionObs{reg: reg, trace: trace, bench: bench}
	for m := hostcost.Mode(0); int(m) < hostcost.NumModes; m++ {
		lbl := m.String()
		so.instr[m] = reg.Counter("vm_instructions_total", "mode", lbl)
		so.wallNs[m] = reg.Counter("vm_wall_ns_total", "mode", lbl)
		so.memAcc[m] = reg.Counter("vm_mem_accesses_total", "mode", lbl)
		so.tcInval[m] = reg.Counter("vm_tc_invalidations_total", "mode", lbl)
		so.excs[m] = reg.Counter("vm_exceptions_total", "mode", lbl)
		so.ioOps[m] = reg.Counter("vm_io_ops_total", "mode", lbl)
		so.flushes[m] = reg.Counter("vm_batch_flushes_total", "mode", lbl)
	}
	so.restores = reg.Counter("ckpt_restores_total")
	so.restoredInstr = reg.Counter("ckpt_restored_instructions_total")
	so.restoreSecs = reg.Histogram("ckpt_restore_seconds", obs.TimeBuckets)
	return so
}

// transition records a mode transition when a burst in mode follows
// one in another mode. It is called once per session burst, skipped
// ones included, and reads the session's position and monitored
// statistics (the trajectory record while the session is ahead of its
// machine), so what the store holds never changes what it records.
func (so *sessionObs) transition(s *Session, mode hostcost.Mode) {
	if so == nil || (so.haveMode && mode == so.mode) {
		return
	}
	now := time.Now()
	st, d := s.Monitored(), ckpt.Record{}
	from := "init"
	var wall int64
	if so.haveMode {
		from = so.mode.String()
		wall = now.Sub(so.transTime).Nanoseconds()
		for m := range d {
			d[m] = st[m] - so.transStats[m]
		}
	}
	so.reg.Counter("core_mode_transitions_total", "from", from, "to", mode.String()).Inc()
	so.trace.Record(obs.Transition{
		Bench:           so.bench,
		From:            from,
		To:              mode.String(),
		Instr:           s.executed,
		WallNs:          wall,
		DeltaTCInval:    d[vm.MetricCPU],
		DeltaExceptions: d[vm.MetricEXC],
		DeltaIOOps:      d[vm.MetricIO],
	})
	so.mode, so.haveMode = mode, true
	so.transStats, so.transTime = st, now
}

// enter captures the pre-run statistics for exit's per-mode deltas.
func (so *sessionObs) enter(s *Session) {
	so.preStats = s.machine.Stats()
	so.preFlushes = s.machine.BatchFlushes()
}

// exit observes the end of the machine.Run started by the matching
// enter: per-mode instruction, stat-delta and wall-clock accounting.
func (so *sessionObs) exit(s *Session, mode hostcost.Mode, start time.Time, ex uint64) {
	so.instr[mode].Add(ex)
	so.wallNs[mode].Add(uint64(time.Since(start).Nanoseconds()))
	d := s.machine.Stats().Sub(so.preStats)
	so.memAcc[mode].Add(d.MemReads + d.MemWrites)
	so.tcInval[mode].Add(d.TCInvalidations)
	so.excs[mode].Add(d.Exceptions)
	so.ioOps[mode].Add(d.IOOps)
	so.flushes[mode].Add(s.machine.BatchFlushes() - so.preFlushes)
}

// hit observes a checkpoint standing in for n instructions; restored, a
// Machine.Restore begun at now(), which reads the clock only with obs.
func (so *sessionObs) hit(n uint64) {
	if so != nil {
		so.restores.Inc()
		so.restoredInstr.Add(n)
	}
}

func (so *sessionObs) now() (t time.Time) {
	if so != nil {
		t = time.Now()
	}
	return t
}

func (so *sessionObs) restored(start time.Time) {
	if so != nil {
		so.restoreSecs.Observe(time.Since(start).Seconds())
	}
}

// runObserved wraps one machine.Run call in mode with observation and
// accounts the executed instructions. With obs detached it reduces to
// the bare Run — one nil check of overhead.
func (s *Session) runObserved(mode hostcost.Mode, n uint64, sink vm.Sink) uint64 {
	if s.ob == nil {
		ex := s.machine.Run(n, sink)
		s.executed += ex
		return ex
	}
	s.ob.enter(s)
	start := time.Now()
	ex := s.machine.Run(n, sink)
	s.ob.exit(s, mode, start, ex)
	s.executed += ex
	return ex
}

// Obs returns the session's attached metrics registry (nil when
// observability is off). The obs types are nil-safe, so policies may
// resolve handles from the result unconditionally.
func (s *Session) Obs() *obs.Registry { return s.opts.Obs }

// Interrupted returns the Options.Context cancellation error once
// stepping has been cut short, nil otherwise. Callers that saw a Run
// method return 0 early use it to distinguish cancellation from
// natural completion and must discard the partial measurement.
func (s *Session) Interrupted() error {
	if s.interrupted && s.ctx != nil {
		return s.ctx.Err()
	}
	return nil
}

// stopped reports whether the session's context is cancelled, latching
// the first observation so later checks are a field read.
func (s *Session) stopped() bool {
	if s.interrupted {
		return true
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.interrupted = true
		return true
	}
	return false
}
