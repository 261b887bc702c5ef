package sampling

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vm"
)

// proxyMetrics is the combined cheap-phase signal: every VM statistic
// the paper's Dynamic policy can monitor, summed. The mix tracks phase
// structure better than any single variable because each signal misses
// transitions the others catch.
var proxyMetrics = []vm.Metric{vm.MetricCPU, vm.MetricEXC, vm.MetricIO}

// twoPhase is what one run of a two-phase design (Stratified,
// RankedSet) carries from its prologue to its epilogue: the result
// under construction, the phase-1 proxy profile that is the design's
// sampling frame, and the obs handles both designs report through.
type twoPhase struct {
	res   Result
	proxy []float64

	po      policyObs
	hwHist  *obs.Histogram
	roundsC *obs.Counter
	metC    *obs.Counter
	missC   *obs.Counter
}

// beginTwoPhase is the designs' common prologue: the cheap full-speed
// proxy profile over the whole budget, which must hold at least one
// interval. The session is left at budget exhaustion; the designs
// Reset() it before every measurement pass.
func beginTwoPhase(s *core.Session, name string) (*twoPhase, error) {
	reg := s.Obs()
	t := &twoPhase{
		res: Result{Policy: name, Bench: s.Spec().Name},
		po:  newPolicyObs(s, name),
		hwHist: reg.Histogram("sampling_ci_rel_halfwidth_pct",
			obs.ExpBuckets(0.125, 2, 12), "policy", name),
		roundsC: reg.Counter("sampling_refine_rounds_total", "policy", name),
		metC:    reg.Counter("sampling_error_target_total", "policy", name, "outcome", "met"),
		missC:   reg.Counter("sampling_error_target_total", "policy", name, "outcome", "budget"),
	}
	t.proxy = proxyProfile(s)
	if len(t.proxy) == 0 {
		return t, errPolicy(name, "budget %d shorter than one interval (%d)", s.Total(), s.IntervalLen())
	}
	t.res.Instructions = s.Executed()
	return t, nil
}

// end is the designs' common epilogue: iv, the CPI interval the
// measurements support, becomes the result's estimate, and — in
// error-targeting mode, targetRelHW > 0 — is held to the requested
// width.
func (t *twoPhase) end(s *core.Session, iv stats.Interval, targetRelHW float64) Result {
	if targetRelHW > 0 {
		t.res.TargetMet = iv.Valid() && iv.RelHalfWidth() <= targetRelHW
		if t.res.TargetMet {
			t.metC.Inc()
		} else {
			t.missC.Inc()
		}
	}
	if iv.Point > 0 {
		t.res.EstIPC = 1 / iv.Point
	}
	if iv.Valid() {
		t.res.CPIInterval = &iv
		t.res.CIHalfWidthPct = iv.RelHalfWidth() * 100
		t.hwHist.Observe(t.res.CIHalfWidthPct)
	}
	t.res.Cost = s.Meter().Report(s.Scale())
	return t.res
}

// proxyProfile is the cheap first phase of the two-phase designs: run
// the whole budget at full VM speed and record, per base interval, the
// sum of the proxyMetrics deltas. Only full intervals enter the
// sampling frame — a partial tail interval is executed (the functional
// path must complete) but not recorded. The session ends positioned at
// budget exhaustion; callers Reset() before the measurement pass.
func proxyProfile(s *core.Session) []float64 {
	interval := s.IntervalLen()
	var vals []float64
	prev := s.Machine().Stats()
	for !s.Done() {
		ex := s.RunFast(interval)
		if ex == 0 {
			break
		}
		var delta vm.Stats
		delta, prev = s.StatsDelta(prev)
		if ex < interval {
			break
		}
		v := 0.0
		for _, m := range proxyMetrics {
			v += float64(delta.Value(m))
		}
		vals = append(vals, v)
	}
	return vals
}

// measureIntervals takes one ascending measurement pass over a freshly
// Reset session: for each base-interval index, full-speed execution up
// to the warm-up point, detailed warming into the interval, then one
// timed interval. visit receives the interval index and its measured
// CPI. Returns the number of measurements taken; the pass stops early
// only if the guest halts.
func measureIntervals(s *core.Session, indices []int, warmIntervals int, po policyObs, visit func(idx int, cpi float64)) int {
	interval := s.IntervalLen()
	warmLen := interval * uint64(warmIntervals)
	taken := 0
	for _, idx := range indices {
		start := uint64(idx) * interval
		warmStart := uint64(0)
		if start > warmLen {
			warmStart = start - warmLen
		}
		if cur := s.Executed(); warmStart > cur {
			if s.RunFast(warmStart-cur) == 0 {
				break
			}
		}
		if cur := s.Executed(); start > cur {
			s.RunDetailWarm(start - cur)
		}
		ipc, ex := s.RunTimed(interval)
		if ex < interval || ipc <= 0 {
			break
		}
		visit(idx, 1/ipc)
		po.sample(ipc)
		taken++
	}
	return taken
}
