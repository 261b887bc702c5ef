package sampling

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/stats"
)

// Stratified implements two-phase stratified sampling (Ekman &
// Stenström): a cheap full-speed first pass records a per-interval
// phase proxy from the VM's internal statistics, the frame is
// stratified by that proxy, and a second pass takes detailed-timing
// measurements allocated across strata by Neyman's rule (proportional
// to within-stratum spread). The estimator layer turns the per-stratum
// CPI samples into a point estimate with a confidence interval
// (stratified variance with finite-population correction).
//
// With TargetRelHW set the policy runs in error-targeting mode: after
// the initial design it keeps adding measurement rounds — allocated
// where the measured CPI variance is largest — until the interval is
// no wider than requested or the sample budget is exhausted. Every
// pass replays the guest from the start (Session.Reset preserves the
// host-cost meter), so multi-pass refinement pays its real cost.
type Stratified struct {
	// Strata is the number of strata K the frame is cut into.
	Strata int
	// Samples is the initial number of timed measurements.
	Samples int
	// WarmIntervals is the detailed warm-up before each measurement,
	// in base intervals.
	WarmIntervals int
	// Confidence is the level of the reported interval.
	Confidence float64
	// TargetRelHW, when positive, requests an interval no wider than
	// ±TargetRelHW (fraction of the CPI estimate) at Confidence.
	TargetRelHW float64
	// Budget caps total measurements in targeting mode
	// (0 = 4×Samples).
	Budget int
	// Seed drives all random selection; same seed, same result.
	Seed uint64
}

const (
	// minPerStratum floors the allocation so every stratum can
	// estimate its own variance.
	minPerStratum = 3
	// maxRounds caps refinement rounds in targeting mode.
	maxRounds = 6
)

// NewStratified returns the standard configuration: six strata, 48
// samples, two warm-up intervals, 95% confidence. (Six strata beat
// four empirically on the repo's workloads: finer phase strata capture
// more of the CPI variance in the between-strata component, narrowing
// the interval and improving its coverage; check.StatisticalValidity
// pins the result.)
func NewStratified(seed uint64) Stratified {
	return Stratified{Strata: 6, Samples: 48, WarmIntervals: 2, Confidence: 0.95, Seed: seed}
}

// WithTarget returns a copy running in error-targeting mode: sample
// until the CPI interval is within ±relHW at the configured
// confidence, or budget measurements have been spent.
func (p Stratified) WithTarget(relHW float64, budget int) Stratified {
	p.TargetRelHW = relHW
	p.Budget = budget
	return p
}

// Name implements Policy ("Strat-K4-n48-s17"; targeting mode names the
// contract instead of the fixed design: "Strat-K4-±1%@95-s17").
func (p Stratified) Name() string {
	p = p.withDefaults()
	if p.TargetRelHW > 0 {
		return fmt.Sprintf("Strat-K%d-±%.3g%%@%.0f-s%d",
			p.Strata, p.TargetRelHW*100, p.Confidence*100, p.Seed)
	}
	return fmt.Sprintf("Strat-K%d-n%d-s%d", p.Strata, p.Samples, p.Seed)
}

func (p Stratified) withDefaults() Stratified {
	if p.Strata <= 0 {
		p.Strata = 6
	}
	if p.Samples <= 0 {
		p.Samples = 48
	}
	if p.WarmIntervals <= 0 {
		p.WarmIntervals = 2
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = 0.95
	}
	if p.Budget <= 0 {
		p.Budget = 4 * p.Samples
	}
	return p
}

// stratum is the builder state for one stratum during a run.
type stratum struct {
	order []int // seeded selection order over the stratum's intervals
	next  int   // how many of order have been selected so far
	cpi   stats.Stream
}

// Run implements Policy.
func (p Stratified) Run(s *core.Session) (Result, error) {
	p = p.withDefaults()
	// Phase 1: cheap full-speed proxy profile over the whole budget.
	tp, err := beginTwoPhase(s, p.Name())
	if err != nil {
		return tp.d.res, err
	}
	proxy := tp.proxy
	n := len(proxy)

	// Stratify: sort the frame by (proxy, index) and cut into K
	// near-equal contiguous groups, each with its share of the frame
	// and its proxy spread.
	k := min(p.Strata, n)
	byProxy := make([]int, n)
	for i := range byProxy {
		byProxy[i] = i
	}
	sort.SliceStable(byProxy, func(a, b int) bool {
		if proxy[byProxy[a]] != proxy[byProxy[b]] {
			return proxy[byProxy[a]] < proxy[byProxy[b]]
		}
		return byProxy[a] < byProxy[b]
	})
	strata := make([]stratum, k)
	stratumOf := make([]int, n)
	weights := make([]float64, k)
	sizes := make([]int, k)
	proxySDs := make([]float64, k)
	rng := mix.NewRNG(p.Seed)
	pos := 0
	for h := range strata {
		size := n / k
		if h < n%k {
			size++
		}
		members := byProxy[pos : pos+size]
		pos += size
		var st stats.Stream
		for _, idx := range members {
			st.Add(proxy[idx])
			stratumOf[idx] = h
		}
		perm := rng.Perm(size)
		strata[h].order = make([]int, size)
		for i, j := range perm {
			strata[h].order[i] = members[j]
		}
		weights[h] = float64(size) / float64(n)
		sizes[h] = size
		proxySDs[h] = st.StdDev()
	}

	// measureRound selects alloc[h] fresh indices per stratum and takes
	// one replayed measurement pass over them.
	measureRound := func(alloc []int) int {
		var indices []int
		for h := range strata {
			st := &strata[h]
			take := min(alloc[h], len(st.order)-st.next)
			indices = append(indices, st.order[st.next:st.next+take]...)
			st.next += take
		}
		return tp.measure(indices, p.WarmIntervals, func(idx int, cpi float64) {
			strata[stratumOf[idx]].cpi.Add(cpi)
		})
	}

	estimate := func() stats.Interval {
		sm := make([]stats.Stratum, k)
		for h := range strata {
			sm[h] = stats.Stratum{
				Weight:  weights[h],
				PopSize: uint64(sizes[h]),
				Sample:  strata[h].cpi.Summary(),
			}
		}
		return stats.StratifiedMeanInterval(sm, p.Confidence)
	}

	// Initial design: Neyman allocation on the free phase-1 proxy
	// spread, floored so each stratum can estimate its variance.
	measureRound(stats.NeymanAllocation(min(p.Samples, n), minPerStratum, weights, proxySDs, sizes))

	// Error-targeting refinement: each round goes where the measured
	// CPI variance is largest (the proxy spread stands in while a
	// stratum has fewer than two measurements), at least one
	// measurement per stratum.
	iv := tp.refine(estimate(), p.TargetRelHW, p.Budget, maxRounds, k,
		func() int { return tp.d.res.Samples },
		func(need int) bool {
			cpiSDs := make([]float64, k)
			remaining := make([]int, k)
			anyRoom := false
			for h := range strata {
				cpiSDs[h] = strata[h].cpi.StdDev()
				if cpiSDs[h] == 0 && strata[h].cpi.N() < 2 {
					cpiSDs[h] = proxySDs[h]
				}
				remaining[h] = len(strata[h].order) - strata[h].next
				anyRoom = anyRoom || remaining[h] > 0
			}
			return anyRoom && measureRound(allocRemaining(need, weights, cpiSDs, remaining)) > 0
		}, estimate)
	return tp.end(iv, p.TargetRelHW), nil
}

// allocRemaining is NeymanAllocation with caps given as remaining room
// (a cap of zero means the stratum is exhausted, not uncapped).
func allocRemaining(total int, weights, sds []float64, remaining []int) []int {
	k := len(weights)
	w := make([]float64, 0, k)
	sd := make([]float64, 0, k)
	caps := make([]int, 0, k)
	live := make([]int, 0, k)
	for h := 0; h < k; h++ {
		if remaining[h] <= 0 {
			continue
		}
		live = append(live, h)
		w = append(w, weights[h])
		sd = append(sd, sds[h])
		caps = append(caps, remaining[h])
	}
	sub := stats.NeymanAllocation(total, 0, w, sd, caps)
	out := make([]int, k)
	for i, h := range live {
		out[h] = sub[i]
	}
	return out
}
