package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	// Known population: unbiased variance = 32/7.
	if want := 32.0 / 7; math.Abs(s.Variance()-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", s.Variance(), want)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Stream
		var sum float64
		for _, r := range raw {
			s.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, r := range raw {
			d := float64(r) - mean
			m2 += d * d
		}
		twoPass := m2 / float64(len(raw)-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-twoPass) < 1e-6*(1+twoPass)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	// Deterministic pseudo-random observations around 10.
	x := uint64(99)
	next := func() float64 {
		x = x*6364136223846793005 + 1
		return 10 + float64(int64(x>>40)%1000)/500 - 1
	}
	var small, big Stream
	for i := 0; i < 100; i++ {
		small.Add(next())
	}
	for i := 0; i < 10000; i++ {
		big.Add(next())
	}
	if big.CI(0.95) >= small.CI(0.95) {
		t.Fatalf("CI must shrink with n: %v vs %v", big.CI(0.95), small.CI(0.95))
	}
	// ~sqrt(100) relationship.
	ratio := small.CI(0.95) / big.CI(0.95)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("CI scaling ratio %v, want ~10", ratio)
	}
}

func TestCICoverage(t *testing.T) {
	// Repeated sampling experiments: the 95% CI must cover the true
	// mean in roughly 95% of trials.
	x := uint64(7)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(int64(x>>33)) / float64(1<<30) // ~uniform [0,2)
	}
	const trueMean = 1.0
	covered, trials := 0, 400
	for tr := 0; tr < trials; tr++ {
		var s Stream
		for i := 0; i < 200; i++ {
			s.Add(next())
		}
		if math.Abs(s.Mean()-trueMean) <= s.CI(0.95) {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 || rate > 0.995 {
		t.Fatalf("95%% CI covered the mean in %.1f%% of trials", rate*100)
	}
}

func TestConfidenceOrdering(t *testing.T) {
	var s Stream
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 7))
	}
	if !(s.CI(0.99) > s.CI(0.95) && s.CI(0.95) > s.CI(0.90)) {
		t.Fatal("higher confidence must widen the interval")
	}
}

func TestDegenerateStreams(t *testing.T) {
	var s Stream
	if !math.IsInf(s.CI(0.95), 1) {
		t.Fatal("empty stream CI must be infinite")
	}
	s.Add(5)
	if !math.IsInf(s.CI(0.95), 1) {
		t.Fatal("single observation CI must be infinite")
	}
	s.Add(5)
	if s.Variance() != 0 || s.CI(0.95) != 0 {
		t.Fatal("constant stream must have zero variance")
	}
}
