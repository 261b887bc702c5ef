package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mix"
)

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestIntervalAccessors(t *testing.T) {
	t.Parallel()
	iv := Interval{Point: 2, Lo: 1.5, Hi: 2.7, Confidence: 0.95}
	almost(t, "HalfWidth", iv.HalfWidth(), 0.6)
	almost(t, "RelHalfWidth", iv.RelHalfWidth(), 0.3)
	if !iv.Contains(2.7) || !iv.Contains(1.5) || iv.Contains(2.71) || iv.Contains(1.49) {
		t.Fatalf("Contains boundaries wrong: %+v", iv)
	}
	if !iv.Valid() {
		t.Fatalf("finite ordered interval must be Valid: %+v", iv)
	}
	if math.IsInf((Interval{Point: 0, Lo: -1, Hi: 1}).RelHalfWidth(), 1) == false {
		t.Fatal("RelHalfWidth at Point=0 must be +Inf")
	}
	if infinite(1, 0.95).Valid() {
		t.Fatal("infinite interval must not be Valid")
	}
}

func TestZAndTQuantile(t *testing.T) {
	t.Parallel()
	cases := []struct {
		df, conf, want float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{29, 0.95, 2.045},
		{2.5, 0.95, (4.303 + 3.182) / 2}, // fractional df interpolates
		{0.5, 0.95, 12.706},              // clamped to df=1
		{4, 0.90, 2.132},
		{3, 0.99, 5.841},
		{10, 0.80, 1.0},   // unsupported level: z fallback
		{5, 0.997, 3.0},   // no 0.997 table: z fallback
		{1e9, 0.95, 1.96}, // asymptotic limit is z
	}
	for _, c := range cases {
		got := TQuantile(c.df, c.conf)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TQuantile(%v, %v) = %v, want %v", c.df, c.conf, got, c.want)
		}
	}
	almost(t, "Z(0.95)", Z(0.95), 1.96)
	// The asymptotic branch must stay above z and decrease toward it.
	if a, b := TQuantile(30, 0.95), TQuantile(100, 0.95); !(a > b && b > 1.96) {
		t.Fatalf("asymptotic t not monotone toward z: t(30)=%v t(100)=%v", a, b)
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	sm := Summarize([]float64{1, 2, 3, 4})
	if sm.N != 4 {
		t.Fatalf("N = %d, want 4", sm.N)
	}
	almost(t, "Mean", sm.Mean, 2.5)
	almost(t, "Variance", sm.Variance, 5.0/3.0)
	if sm := Summarize(nil); sm.N != 0 || sm.Mean != 0 || sm.Variance != 0 {
		t.Fatalf("empty Summarize = %+v, want zeros", sm)
	}
}

func TestStratifiedMeanIntervalHandComputed(t *testing.T) {
	t.Parallel()
	// Two strata, equal weight: h1 has N=100, sample {1,2,3}
	// (n=3, mean 2, s²=1); h2 has N=100, sample {4,6} (n=2, mean 5, s²=2).
	strata := []Stratum{
		{Weight: 0.5, PopSize: 100, Sample: Summarize([]float64{1, 2, 3})},
		{Weight: 0.5, PopSize: 100, Sample: Summarize([]float64{4, 6})},
	}
	iv := StratifiedMeanInterval(strata, 0.95)
	almost(t, "Point", iv.Point, 0.5*2+0.5*5)
	v1 := 0.25 * (1 - 3.0/100) * 1.0 / 3
	v2 := 0.25 * (1 - 2.0/100) * 2.0 / 2
	variance := v1 + v2
	df := variance * variance / (v1*v1/2 + v2*v2/1)
	almost(t, "HalfWidth", iv.HalfWidth(), TQuantile(df, 0.95)*math.Sqrt(variance))
	if iv.Confidence != 0.95 {
		t.Fatalf("Confidence = %v", iv.Confidence)
	}
}

func TestStratifiedMeanIntervalDegenerate(t *testing.T) {
	t.Parallel()
	two := Summarize([]float64{2, 4})
	cases := []struct {
		name    string
		strata  []Stratum
		point   float64
		valid   bool
		width   float64 // only checked when valid
		widthOK func(float64) bool
	}{
		{
			// A single stratum reduces to the plain t interval with fpc.
			name:   "one stratum",
			strata: []Stratum{{Weight: 1, PopSize: 10, Sample: two}},
			point:  3, valid: true,
			widthOK: func(w float64) bool {
				want := TQuantile(1, 0.95) * math.Sqrt((1-0.2)*2.0/2)
				return math.Abs(w-want) < 1e-9
			},
		},
		{
			// Zero-variance stratum adds nothing to the width.
			name: "zero-variance stratum",
			strata: []Stratum{
				{Weight: 0.5, PopSize: 100, Sample: Summarize([]float64{5, 5, 5})},
				{Weight: 0.5, PopSize: 100, Sample: two},
			},
			point: 0.5*5 + 0.5*3, valid: true,
			widthOK: func(w float64) bool {
				v := 0.25 * (1 - 0.02)
				want := TQuantile(1, 0.95) * math.Sqrt(v)
				return math.Abs(w-want) < 1e-9
			},
		},
		{
			// n=1 in a census stratum is exact: no sampling variance.
			name: "census singleton",
			strata: []Stratum{
				{Weight: 0.5, PopSize: 1, Sample: Summarize([]float64{4})},
				{Weight: 0.5, PopSize: 100, Sample: two},
			},
			point: 0.5*4 + 0.5*3, valid: true,
			widthOK: func(w float64) bool { return w > 0 && !math.IsInf(w, 1) },
		},
		{
			// n=1 subsample in a non-census stratum cannot estimate s².
			name: "n=1 subsample",
			strata: []Stratum{
				{Weight: 0.5, PopSize: 50, Sample: Summarize([]float64{4})},
				{Weight: 0.5, PopSize: 100, Sample: two},
			},
			point: 0.5*4 + 0.5*3, valid: false,
		},
		{
			name: "weighted stratum with no samples",
			strata: []Stratum{
				{Weight: 0.5, PopSize: 50},
				{Weight: 0.5, PopSize: 100, Sample: two},
			},
			point: 0.5 * 3, valid: false,
		},
		{
			// Full census everywhere: the estimate is exact.
			name: "all census",
			strata: []Stratum{
				{Weight: 0.5, PopSize: 2, Sample: two},
				{Weight: 0.5, PopSize: 3, Sample: Summarize([]float64{1, 2, 3})},
			},
			point: 0.5*3 + 0.5*2, valid: true,
			widthOK: func(w float64) bool { return w == 0 },
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			iv := StratifiedMeanInterval(c.strata, 0.95)
			almost(t, "Point", iv.Point, c.point)
			if iv.Valid() != c.valid {
				t.Fatalf("Valid() = %v, want %v (%+v)", iv.Valid(), c.valid, iv)
			}
			if c.valid && !c.widthOK(iv.HalfWidth()) {
				t.Fatalf("unexpected half-width %v", iv.HalfWidth())
			}
		})
	}
}

func TestNeymanAllocation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name          string
		total, min    int
		weights, sds  []float64
		caps          []int
		want          []int
		wantSumAtMost int
	}{
		{
			// Scores 0.5 and 1.5 → ideal 2.5/7.5; the tie in rounding
			// remainders breaks toward the lower index.
			name:  "proportional to weight*sd",
			total: 10, weights: []float64{0.5, 0.5}, sds: []float64{1, 3},
			want: []int{3, 7},
		},
		{
			name:  "floor respected",
			total: 10, min: 2, weights: []float64{0.5, 0.5}, sds: []float64{1, 3},
			want: []int{4, 6},
		},
		{
			name:  "caps bind and spill",
			total: 10, weights: []float64{0.5, 0.5}, sds: []float64{1, 1},
			caps: []int{3, 0},
			want: []int{3, 7},
		},
		{
			name:  "zero spread falls back to weights",
			total: 8, weights: []float64{0.25, 0.75}, sds: []float64{0, 0},
			want: []int{2, 6},
		},
		{
			name:  "everything capped",
			total: 5, weights: []float64{1}, sds: []float64{1}, caps: []int{2},
			want: []int{2},
		},
		{
			name: "empty", total: 5,
			want: []int{},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := NeymanAllocation(c.total, c.min, c.weights, c.sds, c.caps)
			if len(got) != len(c.want) {
				t.Fatalf("len = %d, want %d", len(got), len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("allocation = %v, want %v", got, c.want)
				}
			}
		})
	}
}

func TestNeymanAllocationProperties(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := mix.NewRNG(seed)
		k := 1 + rng.Intn(6)
		weights := make([]float64, k)
		sds := make([]float64, k)
		caps := make([]int, k)
		for h := 0; h < k; h++ {
			weights[h] = rng.Float()
			sds[h] = rng.Float() * 10
			caps[h] = rng.Intn(20)
		}
		total := rng.Intn(40)
		min := rng.Intn(3)
		got := NeymanAllocation(total, min, weights, sds, caps)
		sum, capsSum := 0, 0
		for h, n := range got {
			if n < 0 {
				return false
			}
			if caps[h] > 0 && n > caps[h] {
				return false
			}
			sum += n
			c := caps[h]
			if c == 0 {
				c = total
			}
			capsSum += c
		}
		if sum > total {
			return false
		}
		// Budget is exhausted unless the caps make that impossible.
		if sum < total && sum < capsSum && capsSum >= total && total > 0 {
			// Permissible only when no stratum can take more.
			for h, n := range got {
				c := caps[h]
				if c == 0 {
					c = total
				}
				if n < c && weights[h] > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapMeanInterval(t *testing.T) {
	t.Parallel()
	// n=1 subsample: no resampling variance exists.
	if iv := BootstrapMeanInterval([]float64{3}, 200, 1, 0.95); iv.Valid() || iv.Point != 3 {
		t.Fatalf("n=1 bootstrap = %+v, want infinite around 3", iv)
	}
	// Zero spread collapses to a point.
	if iv := BootstrapMeanInterval([]float64{5, 5, 5}, 200, 1, 0.95); iv.HalfWidth() != 0 || iv.Point != 5 {
		t.Fatalf("zero-spread bootstrap = %+v, want width 0 at 5", iv)
	}
	xs := []float64{1, 2, 3, 4, 5, 9}
	a := BootstrapMeanInterval(xs, 300, 42, 0.95)
	b := BootstrapMeanInterval(xs, 300, 42, 0.95)
	if a != b {
		t.Fatalf("bootstrap not deterministic: %+v vs %+v", a, b)
	}
	almost(t, "Point", a.Point, 4)
	if !(a.Lo < a.Point && a.Point < a.Hi) {
		t.Fatalf("interval does not bracket the mean: %+v", a)
	}
	if c := BootstrapMeanInterval(xs, 300, 43, 0.95); c == a {
		t.Fatal("different seeds produced identical resamples")
	}
	// Wider confidence must not shrink the band.
	w90 := BootstrapMeanInterval(xs, 300, 42, 0.90)
	if w90.HalfWidth() > a.HalfWidth() {
		t.Fatalf("90%% band wider than 95%%: %v > %v", w90.HalfWidth(), a.HalfWidth())
	}
}

// A single stratum over an unbounded population must agree exactly with
// the plain t interval for the same sample.
func TestStratifiedMatchesMeanIntervalSingleStratum(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := mix.NewRNG(seed)
		n := 2 + rng.Intn(10)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float() * 100
		}
		sm := Summarize(xs)
		hw := TQuantile(float64(n-1), 0.95) * math.Sqrt(sm.Variance/float64(n))
		b := StratifiedMeanInterval([]Stratum{{Weight: 1, Sample: sm}}, 0.95)
		return math.Abs(sm.Mean-hw-b.Lo) < 1e-9 && math.Abs(sm.Mean+hw-b.Hi) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
