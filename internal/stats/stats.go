// Package stats provides the statistical machinery sampled simulation
// relies on: streaming mean/variance, confidence intervals for the
// sample mean (SMARTS's matched-sampling theory bounds its CPI estimate
// with exactly this), and the coefficient of variation that SMARTS uses
// to size its sample population.
package stats

import "math"

// Stream accumulates observations with Welford's algorithm.
type Stream struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the sample mean.
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// z values for common two-sided confidence levels (normal approximation
// — SMARTS samples in the thousands, where the CLT is comfortable).
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.997:
		return 3.0
	case confidence >= 0.99:
		return 2.576
	case confidence >= 0.95:
		return 1.96
	case confidence >= 0.90:
		return 1.645
	default:
		return 1.0 // ~68%
	}
}

// CI returns the half-width of the two-sided confidence interval of the
// mean at the given confidence level.
func (s *Stream) CI(confidence float64) float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return zFor(confidence) * s.StdDev() / math.Sqrt(float64(s.n))
}
