package stats

import (
	"math"
	"sort"

	"repro/internal/mix"
)

// BootstrapMeanInterval estimates a confidence interval for the mean of
// groups (the per-cycle subsample means of a ranked-set design) by a
// deterministic percentile bootstrap: b resamples of len(groups) draws
// with replacement, seeded by seed, with the percentile band taken from
// the sorted resample means.
//
// The raw percentile bootstrap undercovers badly at the handful of
// cycles a ranked-set run produces, so the band is expanded around the
// point estimate by t_{n-1}/z — the same small-sample calibration a
// t interval applies to a normal one. With one group no variance exists
// and the interval is infinite; with zero spread it collapses to a
// point.
func BootstrapMeanInterval(groups []float64, b int, seed uint64, confidence float64) Interval {
	sm := Summarize(groups)
	if sm.N < 2 {
		return infinite(sm.Mean, confidence)
	}
	if sm.Variance == 0 {
		return Interval{Point: sm.Mean, Lo: sm.Mean, Hi: sm.Mean, Confidence: confidence}
	}
	if b < 2 {
		b = 2
	}
	n := len(groups)
	rng := mix.NewRNG(seed)
	means := make([]float64, b)
	for i := 0; i < b; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += groups[rng.Intn(n)]
		}
		means[i] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	lo := means[int(math.Floor(alpha*float64(b-1)))]
	hi := means[int(math.Ceil((1-alpha)*float64(b-1)))]
	// Small-sample expansion around the point estimate.
	expand := TQuantile(float64(n-1), confidence) / Z(confidence)
	return Interval{
		Point:      sm.Mean,
		Lo:         sm.Mean - expand*(sm.Mean-lo),
		Hi:         sm.Mean + expand*(hi-sm.Mean),
		Confidence: confidence,
	}
}
