package sampling

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/stats"
)

// RankedSet implements ranked set sampling with repeated subsampling
// (Ekman & Stenström): the cheap first-phase proxy profile ranks small
// candidate sets of intervals, and only one member of each set — the
// r-th ranked, with r cycling through 1..m for a balanced design — is
// measured with detailed timing. Ranking by the free proxy spreads the
// measured sample across the CPI distribution, which beats simple
// random sampling whenever the proxy correlates with CPI. The estimate
// is the mean of the measured CPIs; its confidence interval comes from
// a deterministic bootstrap over the per-cycle subsample means.
//
// With TargetRelHW set the policy adds measurement cycles until the
// interval is within the requested width or the cycle budget is
// exhausted, replaying the guest for each extra round.
type RankedSet struct {
	// SetSize is m, the number of candidates ranked per set.
	SetSize int
	// Cycles is the number of balanced cycles (m measurements each).
	Cycles int
	// WarmIntervals is the detailed warm-up before each measurement.
	WarmIntervals int
	// Confidence is the level of the reported interval.
	Confidence float64
	// TargetRelHW, when positive, requests an interval no wider than
	// ±TargetRelHW (fraction of CPI) at Confidence.
	TargetRelHW float64
	// MaxCycles caps total cycles in targeting mode (0 = 4×Cycles).
	MaxCycles int
	// Seed drives set formation and the bootstrap.
	Seed uint64
}

// bootstrapResamples is the number of bootstrap resamples behind the
// reported interval.
const bootstrapResamples = 200

// NewRankedSet returns the standard configuration: sets of four,
// twelve cycles (48 measurements), 95% confidence.
func NewRankedSet(seed uint64) RankedSet {
	return RankedSet{SetSize: 4, Cycles: 12, WarmIntervals: 2, Confidence: 0.95, Seed: seed}
}

// WithTarget returns a copy in error-targeting mode: add cycles until
// the CPI interval is within ±relHW, capped at maxCycles.
func (p RankedSet) WithTarget(relHW float64, maxCycles int) RankedSet {
	p.TargetRelHW = relHW
	p.MaxCycles = maxCycles
	return p
}

// Name implements Policy ("RSS-m4-c12-s17"; targeting mode:
// "RSS-m4-±1%@95-s17").
func (p RankedSet) Name() string {
	p = p.withDefaults()
	if p.TargetRelHW > 0 {
		return fmt.Sprintf("RSS-m%d-±%.3g%%@%.0f-s%d",
			p.SetSize, p.TargetRelHW*100, p.Confidence*100, p.Seed)
	}
	return fmt.Sprintf("RSS-m%d-c%d-s%d", p.SetSize, p.Cycles, p.Seed)
}

func (p RankedSet) withDefaults() RankedSet {
	if p.SetSize <= 0 {
		p.SetSize = 4
	}
	if p.Cycles <= 0 {
		p.Cycles = 12
	}
	if p.WarmIntervals <= 0 {
		p.WarmIntervals = 2
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = 0.95
	}
	if p.MaxCycles <= 0 {
		p.MaxCycles = 4 * p.Cycles
	}
	return p
}

// Run implements Policy.
func (p RankedSet) Run(s *core.Session) (Result, error) {
	p = p.withDefaults()
	// Phase 1: proxy profile (the ranking variable).
	tp, err := beginTwoPhase(s, p.Name())
	if err != nil {
		return tp.d.res, err
	}
	proxy := tp.proxy
	n := len(proxy)

	m := min(p.SetSize, n)

	// The candidate pool: a seeded permutation of the frame, refreshed
	// (skipping already-selected intervals) whenever it runs dry.
	rng := mix.NewRNG(p.Seed)
	pool := rng.Perm(n)
	poolPos := 0
	selected := make(map[int]bool, p.Cycles*m)
	nextCandidate := func() (int, bool) {
		for {
			for poolPos < len(pool) {
				idx := pool[poolPos]
				poolPos++
				if !selected[idx] {
					return idx, true
				}
			}
			if len(selected) >= n {
				return 0, false
			}
			pool = rng.Perm(n)
			poolPos = 0
		}
	}

	// selectCycles forms cycles balanced over ranks: for rank r, draw m
	// candidates, rank them by (proxy, index), and keep the r-th.
	selectCycles := func(cycles int) (byCycle [][]int) {
		for c := 0; c < cycles; c++ {
			var cycle []int
			for r := 0; r < m; r++ {
				set := make([]int, 0, m)
				for len(set) < m {
					idx, ok := nextCandidate()
					if !ok {
						break
					}
					set = append(set, idx)
				}
				if len(set) == 0 {
					break
				}
				sort.Slice(set, func(a, b int) bool {
					if proxy[set[a]] != proxy[set[b]] {
						return proxy[set[a]] < proxy[set[b]]
					}
					return set[a] < set[b]
				})
				chosen := set[min(r, len(set)-1)]
				selected[chosen] = true
				cycle = append(cycle, chosen)
				// Unchosen candidates return to circulation via the
				// refreshed pool (selected-set skipping keeps draws
				// without replacement among measured intervals only).
			}
			if len(cycle) == 0 {
				break
			}
			byCycle = append(byCycle, cycle)
		}
		return byCycle
	}

	// measureCycles selects and measures cycles more cycles, folding
	// each cycle's measured CPIs into its mean.
	cpiOf := make(map[int]float64, p.Cycles*m)
	var cycleMeans []float64
	var allCPI []float64
	measureCycles := func(cycles int) bool {
		byCycle := selectCycles(cycles)
		record := func(idx int, cpi float64) { cpiOf[idx] = cpi }
		if tp.measure(slices.Concat(byCycle...), p.WarmIntervals, record) == 0 {
			return false
		}
		for _, cycle := range byCycle {
			var st stats.Stream
			for _, idx := range cycle {
				if cpi, ok := cpiOf[idx]; ok {
					st.Add(cpi)
					allCPI = append(allCPI, cpi)
				}
			}
			if st.N() > 0 {
				cycleMeans = append(cycleMeans, st.Mean())
			}
		}
		return true
	}

	estimate := func() stats.Interval {
		iv := stats.BootstrapMeanInterval(cycleMeans, bootstrapResamples, p.Seed+0x9e3779b9, p.Confidence)
		// The point estimate is the plain mean of all measurements (the
		// balanced design makes it unbiased); the bootstrap supplies
		// the band around it.
		sm := stats.Summarize(allCPI)
		shift := sm.Mean - iv.Point
		iv.Point = sm.Mean
		iv.Lo += shift
		iv.Hi += shift
		return iv
	}

	measureCycles(p.Cycles)
	// Error-targeting refinement in whole cycles. Every round adds at
	// least one, so MaxCycles also bounds the rounds.
	iv := tp.refine(estimate(), p.TargetRelHW, p.MaxCycles, p.MaxCycles, 1,
		func() int { return len(cycleMeans) }, measureCycles, estimate)
	return tp.end(iv, p.TargetRelHW), nil
}
