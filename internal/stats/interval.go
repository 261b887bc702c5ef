package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval around a point estimate.
// It is the exported contract every statistical sampling policy reports
// through: Point is the estimate (CPI in the sampling policies), Lo/Hi
// bound it at the stated Confidence. Intervals round-trip exactly
// through encoding/json (all fields are float64), which the journal-
// resume equivalence checks rely on.
type Interval struct {
	Point      float64
	Lo         float64
	Hi         float64
	Confidence float64
}

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelHalfWidth returns the half-width as a fraction of the point
// estimate (the "±p%" the error-targeting mode contracts on).
func (iv Interval) RelHalfWidth() float64 {
	if iv.Point == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(iv.Point)
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Valid reports whether the interval is finite and ordered.
func (iv Interval) Valid() bool {
	return !math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) &&
		!math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

// String renders "point ± halfwidth @ conf%".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f @%.0f%%", iv.Point, iv.HalfWidth(), iv.Confidence*100)
}

// infinite returns the degenerate interval reported when a design has
// too few samples to estimate its variance.
func infinite(point, confidence float64) Interval {
	return Interval{Point: point, Lo: math.Inf(-1), Hi: math.Inf(1), Confidence: confidence}
}

// Z returns the two-sided normal critical value for a confidence level
// (the z the CLT-scale SMARTS bound uses; see zFor for the supported
// levels).
func Z(confidence float64) float64 { return zFor(confidence) }

// tTables holds two-sided Student-t critical values for df 1..30 at the
// confidence levels the sampling designs use. Beyond df 30 a first-
// order asymptotic correction of z is accurate to <0.5%; unsupported
// confidence levels fall back to the normal value.
var tTables = map[float64][30]float64{
	0.90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
	0.95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
	0.99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
}

// TQuantile returns the two-sided Student-t critical value for the
// given (possibly fractional) degrees of freedom. Small samples are the
// norm in stratified designs (a handful of measurements per stratum),
// where the normal value badly undercovers; the t correction is what
// makes the claimed confidence empirically honest
// (check.StatisticalValidity pins the coverage).
func TQuantile(df, confidence float64) float64 {
	z := zFor(confidence)
	table, ok := tTables[tableLevel(confidence)]
	if !ok {
		return z
	}
	if df < 1 {
		df = 1
	}
	if df >= 30 {
		// Asymptotic correction (Fisher's expansion, first order).
		return z + (z*z*z+z)/(4*df)
	}
	lo := int(math.Floor(df))
	frac := df - float64(lo)
	if lo >= 30 {
		return table[29]
	}
	v := table[lo-1]
	if frac > 0 && lo < 30 {
		v += frac * (table[lo] - table[lo-1])
	}
	return v
}

// tableLevel maps a confidence to the nearest supported t-table level,
// mirroring zFor's banding; levels without a table return the value
// unchanged (TQuantile then falls back to z).
func tableLevel(confidence float64) float64 {
	switch {
	case confidence >= 0.997:
		return 0.997 // no table: normal fallback (SMARTS-scale samples)
	case confidence >= 0.99:
		return 0.99
	case confidence >= 0.95:
		return 0.95
	case confidence >= 0.90:
		return 0.90
	}
	return confidence
}

// Summary is the sufficient statistic of one batch of observations
// (count, mean, unbiased variance) — the value type the estimator layer
// passes around instead of raw samples.
type Summary struct {
	N        uint64
	Mean     float64
	Variance float64
}

// Summary converts a Stream's accumulated state.
func (s *Stream) Summary() Summary {
	return Summary{N: s.n, Mean: s.mean, Variance: s.Variance()}
}

// Summarize computes a Summary from a sample in one deterministic pass.
func Summarize(xs []float64) Summary {
	var st Stream
	for _, x := range xs {
		st.Add(x)
	}
	return st.Summary()
}

// Stratum is one stratum of a stratified design: its population weight
// (fraction of the frame), its population size in sampling units, and
// the summary of the measurements taken inside it.
type Stratum struct {
	Weight  float64
	PopSize uint64
	Sample  Summary
}

// StratifiedMeanInterval computes the stratified estimate of the
// population mean with its confidence interval: point = Σ W_h·ȳ_h,
// variance = Σ W_h²·(1−n_h/N_h)·s_h²/n_h (the textbook stratified
// variance with finite-population correction), and a t critical value
// at Welch–Satterthwaite effective degrees of freedom.
//
// Degenerate designs follow the statistics, not a crash:
//   - a stratum sampled exhaustively (n_h = N_h, census) contributes
//     zero variance even at n_h = 1;
//   - a non-census stratum with n_h < 2 cannot estimate s_h², and a
//     stratum with weight but no samples cannot contribute a mean:
//     both make the interval infinite (the point estimate is still the
//     weighted mean of what was measured);
//   - a zero-variance stratum contributes nothing to the width.
func StratifiedMeanInterval(strata []Stratum, confidence float64) Interval {
	var point, variance, dfDen float64
	degenerate := false
	for _, h := range strata {
		if h.Weight == 0 {
			continue
		}
		point += h.Weight * h.Sample.Mean
		if h.Sample.N == 0 {
			degenerate = true
			continue
		}
		census := h.PopSize > 0 && h.Sample.N >= h.PopSize
		if census {
			continue // fully enumerated: no sampling variance
		}
		if h.Sample.N < 2 {
			degenerate = true
			continue
		}
		fpc := 1.0
		if h.PopSize > 0 {
			fpc = 1 - float64(h.Sample.N)/float64(h.PopSize)
		}
		term := h.Weight * h.Weight * fpc * h.Sample.Variance / float64(h.Sample.N)
		variance += term
		dfDen += term * term / float64(h.Sample.N-1)
	}
	if degenerate {
		return infinite(point, confidence)
	}
	if variance <= 0 {
		return Interval{Point: point, Lo: point, Hi: point, Confidence: confidence}
	}
	df := variance * variance / dfDen
	hw := TQuantile(df, confidence) * math.Sqrt(variance)
	return Interval{Point: point, Lo: point - hw, Hi: point + hw, Confidence: confidence}
}

// NeymanAllocation splits a total sample budget across strata in
// proportion to weight_h·sd_h (Neyman's optimum), with a per-stratum
// floor of min and a cap of caps[h] (0 = uncapped). Allocation uses the
// deterministic largest-remainder method, so equal inputs always yield
// the same split. When every score is zero (all strata report zero
// spread) the budget falls back to weight-proportional allocation.
// The returned counts sum to at most total; they can sum to less only
// when the caps bind.
func NeymanAllocation(total, min int, weights, sds []float64, caps []int) []int {
	k := len(weights)
	out := make([]int, k)
	if k == 0 || total <= 0 {
		return out
	}
	if min < 0 {
		min = 0
	}
	capOf := func(h int) int {
		if caps == nil || caps[h] <= 0 {
			return total
		}
		return caps[h]
	}
	// Floor allocation first.
	left := total
	for h := 0; h < k; h++ {
		n := min
		if c := capOf(h); n > c {
			n = c
		}
		if n > left {
			n = left
		}
		out[h] = n
		left -= n
	}
	for left > 0 {
		scores := make([]float64, k)
		var sum float64
		for h := 0; h < k; h++ {
			if out[h] >= capOf(h) {
				continue
			}
			scores[h] = weights[h] * sds[h]
			sum += scores[h]
		}
		if sum == 0 {
			for h := 0; h < k; h++ {
				if out[h] >= capOf(h) {
					continue
				}
				scores[h] = weights[h]
				sum += scores[h]
			}
		}
		if sum == 0 {
			break // every stratum capped (or weightless): budget undistributable
		}
		// Largest-remainder round of the remaining budget.
		type rem struct {
			h    int
			frac float64
		}
		base := 0
		rems := make([]rem, 0, k)
		add := make([]int, k)
		for h := 0; h < k; h++ {
			if scores[h] == 0 {
				continue
			}
			ideal := float64(left) * scores[h] / sum
			n := int(ideal)
			if room := capOf(h) - out[h]; n > room {
				n = room
			}
			add[h] = n
			base += n
			rems = append(rems, rem{h, ideal - float64(int(ideal))})
		}
		// Distribute the rounding slack by descending remainder, index
		// ascending on ties (deterministic).
		slack := left - base
		for i := 1; i < len(rems); i++ {
			for j := i; j > 0; j-- {
				a, b := rems[j-1], rems[j]
				if b.frac > a.frac || (b.frac == a.frac && b.h < a.h) {
					rems[j-1], rems[j] = b, a
				} else {
					break
				}
			}
		}
		for _, r := range rems {
			if slack == 0 {
				break
			}
			if out[r.h]+add[r.h] < capOf(r.h) {
				add[r.h]++
				slack--
			}
		}
		progressed := false
		for h := 0; h < k; h++ {
			if add[h] > 0 {
				out[h] += add[h]
				left -= add[h]
				progressed = true
			}
		}
		if !progressed {
			break // caps bind everywhere that still scores
		}
	}
	return out
}
