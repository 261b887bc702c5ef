package sampling

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Target is what a schedule's steps run on: a core.Session, or any
// other machine that moves through the same modes — smp.System moves
// all its guests together. Executed is the target's position, Stat the
// current value of a monitored VM statistic.
type Target interface {
	Done() bool
	Executed() uint64
	RunFast(n uint64) uint64
	RunDetailWarm(n uint64) uint64
	RunTimed(n uint64) (ipc float64, executed uint64)
	Stat(m vm.Metric) uint64
	Obs() *obs.Registry
}

// Driver executes a policy's schedule against one target. A schedule
// is a sequence of steps over the target's modes — reach the warm-up
// start by the step's lead-in, warm in detail up to the timed interval,
// time it — and every policy is one:
//
//   - SMARTS: a periodic (functional warming, detailed warming, timed)
//     unit; FullTiming: the same unit with no warm-up at all.
//   - Dynamic: a fast interval at a time, or a (settle, warm, timed)
//     unit when its PhaseDetector orders one.
//   - Stratified and RankedSet: a fast walk for the sampling frame,
//     then lists of intervals, each replay reaching them at full speed.
//   - SimPoint: a profiling walk, then its simulation points reached by
//     checkpoint dispatch.
//
// The driver is the one place a step becomes target calls. It owns the
// estimator, the sample count and its obs series, the rule that a step
// executing nothing ends the run, and the Result epilogue; a policy
// keeps only its decisions. Walk, Measure and Result need a session.
type Driver struct {
	t   Target
	s   *core.Session // nil when t is not a session
	res Result
	est Estimator

	// Every sample also counts in sampling_samples_total and its IPC in
	// the sampling_interval_ipc distribution, both labelled with the
	// policy name: nil-safe no-ops without a registry, never read back.
	samples     *obs.Counter
	intervalIPC *obs.Histogram
}

// NewDriver starts a run of the named policy on s.
func NewDriver(s *core.Session, policy string) *Driver {
	d := newDriver(s, policy)
	d.s, d.res.Bench = s, s.Spec().Name
	return d
}

// newDriver starts a run of the named policy on t.
func newDriver(t Target, policy string) *Driver {
	reg := t.Obs()
	return &Driver{
		t:       t,
		res:     Result{Policy: policy},
		samples: reg.Counter("sampling_samples_total", "policy", policy),
		intervalIPC: reg.Histogram("sampling_interval_ipc",
			obs.LinearBuckets(0.25, 0.25, 16), "policy", policy),
	}
}

// step is one entry of a schedule in absolute instruction counts: lead
// runs the lead-in to warm, detailed warming runs to start, then n
// instructions are timed. A step with n == 0 is its lead-in alone.
type step struct {
	lead        func(n uint64) uint64
	warm, start uint64
	n           uint64
}

// at is the step that begins at the target's position: leadLen
// instructions of lead, warmLen of detailed warming, n timed.
func (d *Driver) at(lead func(uint64) uint64, leadLen, warmLen, n uint64) step {
	warm := d.t.Executed() + leadLen
	return step{lead: lead, warm: warm, start: warm + warmLen, n: n}
}

// run executes the steps next yields until the target is done, next
// declines, or a step executes nothing (its timed interval, or a
// lead-in-only step's lead-in). Every executed instruction reaches the
// estimator and every timed interval is a sample; took then sees each
// executed step's IPC (0 for a lead-in-only step) and length.
func (d *Driver) run(next func() (step, bool), took func(ipc float64, ex uint64)) {
	t := d.t
	for !t.Done() {
		st, ok := next()
		if !ok {
			return
		}
		var ipc float64
		var ex uint64
		if cur := t.Executed(); st.warm > cur {
			ex = st.lead(st.warm - cur)
			d.est.Functional(ex)
		}
		if st.n > 0 {
			if cur := t.Executed(); st.start > cur {
				d.est.Functional(t.RunDetailWarm(st.start - cur))
			}
			ipc, ex = t.RunTimed(st.n)
		}
		if ex == 0 {
			return
		}
		if st.n > 0 {
			d.est.Sample(ipc, ex)
			d.res.Samples++
			d.samples.Inc()
			d.intervalIPC.Observe(ipc)
		}
		took(ipc, ex)
	}
}

// Walk runs the session one base interval at a time — into prof, or at
// full speed when prof is nil — until it is done, limit intervals have
// run (0: no limit) or one executes nothing, and hands look each
// interval's length. It is the profiling pass of the two-phase designs
// and of SimPoint.
func (d *Driver) Walk(prof vm.Sink, limit int, look func(ex uint64)) {
	lead := d.s.RunFast
	if prof != nil {
		lead = func(n uint64) uint64 { return d.s.RunProfile(n, prof) }
	}
	walked := 0
	d.run(func() (step, bool) {
		walked++
		return d.at(lead, d.s.IntervalLen(), 0, 0), limit == 0 || walked <= limit
	}, func(_ float64, ex uint64) { look(ex) })
}

// measureWarm is Measure's detailed warm-up before each measured
// interval, in base intervals: SimPoint's, Stratified's and RankedSet's.
const measureWarm = 2

// Measure times the base interval at each of indices (ascending, the
// session not past the first), each after measureWarm intervals of
// detailed warming reached at full speed or, with dispatch, by free
// checkpoint dispatch. visit sees each measurement's position in
// indices and its IPC.
func (d *Driver) Measure(indices []int, dispatch bool, visit func(i int, ipc float64)) {
	s := d.s
	warmLen := s.IntervalLen() * measureWarm
	lead := s.RunFast
	if dispatch {
		lead = func(n uint64) uint64 { return s.FastForwardVia(s.Executed() + n) }
	}
	i := -1
	d.run(func() (step, bool) {
		i++
		if i == len(indices) {
			return step{}, false
		}
		if dispatch {
			// The paper's fixed cost of dispatching to a stored state,
			// charged whether or not the store had a hit.
			s.Meter().ChargeRestore()
		}
		start := uint64(indices[i]) * s.IntervalLen()
		return step{lead: lead, warm: start - min(start, warmLen), start: start, n: s.IntervalLen()}, true
	}, func(ipc float64, _ uint64) { visit(i, ipc) })
}

// Result closes the run: the estimator's IPC, the session's executed
// instructions and its cost report. Policies that replay the guest
// overwrite the first two with their own estimate and the first pass's
// length.
func (d *Driver) Result() Result {
	d.res.EstIPC = d.est.IPC()
	d.res.Instructions = d.s.Executed()
	d.res.Cost = d.s.Meter().Report(d.s.Scale())
	return d.res
}
