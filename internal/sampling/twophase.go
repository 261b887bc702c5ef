package sampling

import (
	"fmt"
	"math"
	"sort"

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
// RankedSet) carries from its prologue to its epilogue: the driver, the
// phase-1 proxy profile that is the design's sampling frame and the
// length of that pass, and the obs handles both designs report through.
type twoPhase struct {
	d            *Driver
	proxy        []float64
	instructions uint64

	hwHist  *obs.Histogram
	roundsC *obs.Counter
	metC    *obs.Counter
	missC   *obs.Counter
}

// beginTwoPhase is the designs' common prologue, the cheap first phase:
// walk the whole budget at full VM speed and record, per base interval,
// the sum of the proxyMetrics deltas. Only full intervals enter the
// sampling frame, which must hold at least one — a partial tail
// interval is executed (the functional path must complete) but not
// recorded.
func beginTwoPhase(s *core.Session, name string) (*twoPhase, error) {
	reg := s.Obs()
	t := &twoPhase{
		d: NewDriver(s, name),
		hwHist: reg.Histogram("sampling_ci_rel_halfwidth_pct",
			obs.ExpBuckets(0.125, 2, 12), "policy", name),
		roundsC: reg.Counter("sampling_refine_rounds_total", "policy", name),
		metC:    reg.Counter("sampling_error_target_total", "policy", name, "outcome", "met"),
		missC:   reg.Counter("sampling_error_target_total", "policy", name, "outcome", "budget"),
	}
	prev := s.Monitored()
	t.d.Walk(nil, 0, func(ex uint64) {
		now := s.Monitored()
		v := 0.0
		for _, m := range proxyMetrics {
			v += float64(now[m] - prev[m])
		}
		prev = now
		if ex == s.IntervalLen() {
			t.proxy = append(t.proxy, v)
		}
	})
	if len(t.proxy) == 0 {
		return t, fmt.Errorf("sampling: %s: budget %d shorter than one interval (%d)", name, s.Total(), s.IntervalLen())
	}
	t.instructions = s.Executed()
	return t, nil
}

// measure replays the guest from the start and times the base interval
// at each of indices (any order; sorted in place), each after
// warmIntervals of detailed warming; visit receives every measured
// index with its CPI. It returns the number of measurements taken.
func (t *twoPhase) measure(indices []int, warmIntervals int, visit func(idx int, cpi float64)) int {
	if len(indices) == 0 {
		return 0
	}
	sort.Ints(indices)
	before := t.d.res.Samples
	t.d.s.Reset()
	t.d.Measure(indices, warmIntervals, false, func(i int, ipc float64) { visit(indices[i], 1/ipc) })
	return t.d.res.Samples - before
}

// refine is the error-targeting loop both designs share. While iv is
// wider than ±target and rounds remain, it asks more for need further
// units — samples for Stratified, cycles for RankedSet — and
// re-estimates. With n units spent and r the ratio of iv's relative
// half-width to the target, a mean's interval shrinks by r after about
// n·r² units in all, so need = ⌈n·(r²−1)⌉: never fewer than floor (all
// of floor while iv is not yet valid) and never past budget. more
// returns false when it could measure nothing.
func (t *twoPhase) refine(iv stats.Interval, target float64, budget, rounds, floor int,
	spent func() int, more func(need int) bool, estimate func() stats.Interval) stats.Interval {
	for round := 0; target > 0 && round < rounds; round++ {
		if iv.Valid() && iv.RelHalfWidth() <= target {
			break
		}
		n := spent()
		left := budget - n
		if left <= 0 {
			break
		}
		need := floor
		if iv.Valid() {
			r := iv.RelHalfWidth() / target
			need = max(int(math.Ceil(float64(n)*(r*r-1))), floor)
		}
		if !more(min(need, left)) {
			break
		}
		t.roundsC.Inc()
		iv = estimate()
	}
	return iv
}

// end is the designs' common epilogue: iv, the CPI interval the
// measurements support, becomes the result's estimate, and — in
// error-targeting mode, targetRelHW > 0 — is held to the requested
// width.
func (t *twoPhase) end(iv stats.Interval, targetRelHW float64) Result {
	res := t.d.Result()
	res.Instructions = t.instructions
	res.EstIPC = 0
	if iv.Point > 0 {
		res.EstIPC = 1 / iv.Point
	}
	if targetRelHW > 0 {
		res.TargetMet = iv.Valid() && iv.RelHalfWidth() <= targetRelHW
		if res.TargetMet {
			t.metC.Inc()
		} else {
			t.missC.Inc()
		}
	}
	if iv.Valid() {
		res.CPIInterval = &iv
		t.hwHist.Observe(iv.RelHalfWidth() * 100)
	}
	return res
}
