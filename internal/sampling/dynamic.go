package sampling

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Dynamic implements the paper's contribution: Dynamic Sampling
// (Algorithm 1). The VM runs at full speed; at the end of every interval
// the policy inspects one of the VM's *internal* statistics — code-cache
// invalidations (CPU), exceptions (EXC), or I/O operations (I/O) — and
// when the relative change between successive intervals exceeds the
// sensitivity threshold it declares a phase change and activates full
// timing simulation for the next interval. A cap on consecutive
// functional intervals (max_func) guarantees a minimum sampling rate
// regardless of phase behaviour.
//
// Unlike SMARTS and SimPoint, no per-instruction information is needed
// while timing is off, so the VM keeps its translation cache and block
// chaining fully enabled — this is what makes the technique compatible
// with fast virtual machines.
type Dynamic struct {
	// Metric is the monitored VM statistic (Algorithm 1's "var").
	Metric vm.Metric
	// SensitivityPct is the phase-change threshold S as a percentage:
	// a phase change is declared when |Δvar| / max(prev,1) * 100 > S.
	SensitivityPct float64
	// IntervalMul scales the session's base interval (the paper's 1M,
	// 10M, 100M instruction intervals are IntervalMul 1, 10, 100); 0
	// means 1.
	IntervalMul uint64
	// MaxFunc is the maximum number of consecutive functional intervals
	// before a measurement is forced; 0 means unlimited (∞).
	MaxFunc int
	// WarmIntervals is the detailed warm-up before each measurement in
	// base intervals (the paper uses 1M instructions = 1).
	WarmIntervals int
	// SettleIntervals is the number of full-speed functional intervals
	// inserted between a detection and the warm-up. At the paper's
	// scale a phase's start transient is a vanishing fraction of the 1M
	// warm-up; at reduced scale the transient spans whole intervals, so
	// one cheap functional interval keeps the measurement out of it
	// without the cost of more detailed warming.
	SettleIntervals int
}

// NewDynamic returns the paper's standard configuration for a monitored
// metric: sensitivity in percent, interval multiplier, and max_func
// (0 = ∞). Warm-up defaults to one base interval.
func NewDynamic(metric vm.Metric, sensitivityPct float64, intervalMul uint64, maxFunc int) Dynamic {
	return Dynamic{
		Metric:          metric,
		SensitivityPct:  sensitivityPct,
		IntervalMul:     intervalMul,
		MaxFunc:         maxFunc,
		WarmIntervals:   1,
		SettleIntervals: 1,
	}
}

// Name implements Policy, using the paper's "VAR-S-LEN-MAXF" naming
// (e.g. "CPU-300-1M-∞").
func (p Dynamic) Name() string {
	lenName := map[uint64]string{1: "1M", 10: "10M", 100: "100M"}[max(p.IntervalMul, 1)]
	if lenName == "" {
		lenName = fmt.Sprintf("%dx", p.IntervalMul)
	}
	maxf := "∞"
	if p.MaxFunc > 0 {
		maxf = fmt.Sprintf("%d", p.MaxFunc)
	}
	return fmt.Sprintf("%s-%.0f-%s-%s", p.Metric, p.SensitivityPct, lenName, maxf)
}

// Run implements Policy: Algorithm 1 on the session, whose interval is
// the base interval.
func (p Dynamic) Run(s *core.Session) (Result, error) {
	d := NewDriver(s, p.Name())
	p.drive(d, s.IntervalLen())
	return d.Result(), nil
}

// RunOn runs Algorithm 1 on any other target, base instructions being
// one base interval.
func (p Dynamic) RunOn(t Target, base uint64) { p.drive(newDriver(t, p.Name()), base) }

// drive is the paper's Algorithm 1: a fast interval at a time, and
// after each the monitored variable decides whether the next step is a
// measurement.
func (p Dynamic) drive(d *Driver, base uint64) {
	interval := base * max(p.IntervalMul, 1)
	settleLen := base * uint64(p.SettleIntervals)
	warmLen := base * uint64(p.WarmIntervals)
	t := d.t

	// Decision bookkeeping for the observability layer; all handles are
	// nil-safe no-ops when the target has no registry.
	reg := t.Obs()
	detectC := reg.Counter("sampling_decisions_total", "policy", p.Name(), "decision", "detect")
	maxfuncC := reg.Counter("sampling_decisions_total", "policy", p.Name(), "decision", "maxfunc")
	steadyC := reg.Counter("sampling_decisions_total", "policy", p.Name(), "decision", "steady")
	gapHist := reg.Histogram("sampling_functional_gap_intervals",
		obs.ExpBuckets(1, 2, 10), "policy", p.Name())

	det := PhaseDetector{SensitivityPct: p.SensitivityPct, MaxFunc: p.MaxFunc}
	timing := false
	prev := t.Stat(p.Metric)
	// One method value for the whole run: built per step, it would be
	// a heap allocation per step.
	fast := t.RunFast
	d.run(func() (step, bool) {
		if timing {
			// Warm-up precedes each measurement ("each simulation
			// interval is preceded by a warming period", Section 3.3).
			return d.at(fast, settleLen, warmLen, interval), true
		}
		return d.at(fast, interval, 0, 0), true
	}, func(float64, uint64) {
		// Inspect the monitored variable at the end of the interval.
		now := t.Stat(p.Metric)
		decision, gap := det.Observe(now - prev)
		prev = now
		timing = decision.Sample()
		switch decision {
		case Detect:
			// The base interval the triggering interval ended in.
			d.res.Detections = append(d.res.Detections, (t.Executed()-1)/base)
			detectC.Inc()
			gapHist.Observe(float64(gap))
		case Forced:
			maxfuncC.Inc()
			gapHist.Observe(float64(gap))
		case Steady:
			steadyC.Inc()
		}
	})
}
