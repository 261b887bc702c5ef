package simpoint

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The oracles of the analysis stage. refKMeans and refProfiler are the
// bodies KMeans and Profiler.OnEvents had before they became kernels:
// every distance summed in full, every centroid scanned for every
// vector, one map increment per instruction. The production code must
// reproduce their results to the bit, so every comparison below is on
// math.Float64bits, never on a tolerance.

// refStats counts the rare branches a refKMeans run took, so the tests
// can assert that their inputs reached them.
type refStats struct {
	repairs   int // empty clusters re-seeded on the farthest point
	flatSeeds int // k-means++ draws with every vector already on a centroid
	ties      int // assignment-step distances equal to the running best
}

func (s *refStats) add(o refStats) {
	s.repairs += o.repairs
	s.flatSeeds += o.flatSeeds
	s.ties += o.ties
}

func refKMeans(vectors [][]float64, k, iters int, seed uint64) (KMeansResult, refStats) {
	var st refStats
	n := len(vectors)
	if n == 0 {
		return KMeansResult{K: 0}, st
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	dim := len(vectors[0])
	rng := mix.NewRNG(seed)

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), vectors[first]...))
	minDist := make([]float64, n)
	for i, v := range vectors {
		minDist[i] = DistanceSq(v, centroids[0])
	}
	for len(centroids) < k {
		var sum float64
		for _, d := range minDist {
			sum += d
		}
		var next int
		if sum <= 0 {
			st.flatSeeds++
			next = rng.Intn(n)
		} else {
			target := rng.Float() * sum
			for i, d := range minDist {
				target -= d
				if target <= 0 {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), vectors[next]...))
		c := centroids[len(centroids)-1]
		for i, v := range vectors {
			if d := DistanceSq(v, c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	assign := make([]int, n)
	sizes := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}

	var wcss float64
	for it := 0; it < iters; it++ {
		// Assignment step.
		changed := false
		wcss = 0
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				d := DistanceSq(v, cen)
				if d == bestD {
					st.ties++
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || it == 0 {
				changed = true
			}
			assign[i] = best
			wcss += bestD
		}
		// Update step.
		for c := range sums {
			sizes[c] = 0
			for d := range sums[c] {
				sums[c][d] = 0
			}
		}
		for i, v := range vectors {
			c := assign[i]
			sizes[c]++
			for d, x := range v {
				sums[c][d] += x
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				// Repair: re-seed on the globally farthest point.
				st.repairs++
				far, farD := 0, -1.0
				for i, v := range vectors {
					if d := DistanceSq(v, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], vectors[far])
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] * inv
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	// Final assignment/WCSS against the last centroids.
	wcss = 0
	for c := range sizes {
		sizes[c] = 0
	}
	for i, v := range vectors {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := DistanceSq(v, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		sizes[best]++
		wcss += bestD
	}

	res := KMeansResult{
		K:         k,
		Centroids: centroids,
		Assign:    assign,
		Sizes:     sizes,
		WCSS:      wcss,
	}
	res.BIC = bic(res, n, dim)
	return res, st
}

// refProfiler is a Profiler whose accumulation is one map increment per
// event; projection and normalisation are the Profiler's own.
type refProfiler struct{ *Profiler }

func (p refProfiler) OnEvents(evs []vm.Event) {
	for i := range evs {
		p.cur[evs[i].PC>>6]++
	}
}

// sameResult fails the test unless got and want agree in every bit.
func sameResult(tb testing.TB, name string, got, want KMeansResult) {
	tb.Helper()
	if got.K != want.K || len(got.Centroids) != len(want.Centroids) ||
		len(got.Assign) != len(want.Assign) || len(got.Sizes) != len(want.Sizes) {
		tb.Fatalf("%s: shape K=%d centroids=%d assign=%d sizes=%d, want K=%d %d %d %d", name,
			got.K, len(got.Centroids), len(got.Assign), len(got.Sizes),
			want.K, len(want.Centroids), len(want.Assign), len(want.Sizes))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			tb.Fatalf("%s: Assign[%d] = %d, want %d", name, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			tb.Fatalf("%s: Sizes[%d] = %d, want %d", name, c, got.Sizes[c], want.Sizes[c])
		}
	}
	for c := range want.Centroids {
		if len(got.Centroids[c]) != len(want.Centroids[c]) {
			tb.Fatalf("%s: centroid %d has %d coordinates, want %d", name, c, len(got.Centroids[c]), len(want.Centroids[c]))
		}
		for d := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				tb.Fatalf("%s: centroid %d[%d] = %x, want %x", name, c, d, got.Centroids[c][d], want.Centroids[c][d])
			}
		}
	}
	if math.Float64bits(got.WCSS) != math.Float64bits(want.WCSS) {
		tb.Fatalf("%s: WCSS = %x, want %x", name, got.WCSS, want.WCSS)
	}
	if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
		tb.Fatalf("%s: BIC = %x, want %x", name, got.BIC, want.BIC)
	}
}

func newSession(tb testing.TB, bench string, scale int) *core.Session {
	tb.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	return core.NewSession(spec, core.Options{Scale: scale})
}

// profileBBVs runs the profiling pass Analyse runs and returns its BBVs.
func profileBBVs(tb testing.TB, bench string, scale int) [][]float64 {
	tb.Helper()
	s := newSession(tb, bench, scale)
	prof := NewProfiler(DefaultDim, Seed)
	for !s.Done() {
		if s.RunProfile(s.IntervalLen(), prof) == 0 {
			break
		}
		prof.EndInterval()
	}
	return prof.Vectors()
}

// The shapes of generated vector set genVectors knows.
const (
	genUniform = iota // coordinates uniform in [0, 1)
	genLattice        // quarter-integer coordinates: duplicates and exact ties
	genFew            // three distinct vectors, each many times over
	genBlobs          // tight clusters, a few members duplicated
	genHuge           // squares overflow to +Inf
	genTiny           // squares underflow to subnormals and zero
	genKinds
)

func genVectors(kind, n, dim int, seed uint64) [][]float64 {
	r := mix.NewRNG(seed)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for d := range v {
			switch kind {
			case genUniform:
				v[d] = r.Float()
			case genLattice:
				v[d] = float64(r.Intn(3)) / 4
			case genHuge:
				v[d] = (r.Float() - 0.5) * 1e160
			case genTiny:
				v[d] = (r.Float() - 0.5) * 1e-160
			}
		}
		vecs[i] = v
	}
	switch kind {
	case genFew:
		distinct := genVectors(genUniform, 3, dim, seed+1)
		for i := range vecs {
			vecs[i] = distinct[r.Intn(len(distinct))]
		}
	case genBlobs:
		centres := genVectors(genUniform, 4, dim, seed+1)
		for i, v := range vecs {
			c := centres[r.Intn(len(centres))]
			for d := range v {
				v[d] = c[d] + 0.01*(r.Float()-0.5)
			}
			if i > 0 && r.Intn(4) == 0 {
				vecs[i] = vecs[r.Intn(i)]
			}
		}
	}
	return vecs
}

// TestKMeansMatchesReference compares KMeans with refKMeans bit for bit:
// on the whole ChooseK ladder over real BBVs, and on generated vector
// sets that reach the branches real BBVs rarely take.
func TestKMeansMatchesReference(t *testing.T) {
	t.Run("ladder", func(t *testing.T) {
		const iters = kmeansIters
		seed := Seed
		for _, bench := range []string{"gzip", "mcf", "ammp"} {
			vectors := profileBBVs(t, bench, 40_000)
			sub := subsample(vectors)
			var st refStats
			for _, k := range ladder(min(maxK, len(sub))) {
				want, s := refKMeans(sub, k, iters, seed+uint64(k))
				st.add(s)
				sameResult(t, fmt.Sprintf("%s k=%d", bench, k), KMeans(sub, k, iters, seed+uint64(k)), want)
			}
			// The final clustering runs on every vector.
			for _, k := range []int{5, 40} {
				want, s := refKMeans(vectors, k, iters, seed+7)
				st.add(s)
				sameResult(t, fmt.Sprintf("%s final k=%d", bench, k), KMeans(vectors, k, iters, seed+7), want)
			}
			t.Logf("%s: %d vectors (%d in the ladder), reference took %+v", bench, len(vectors), len(sub), st)
		}
	})

	t.Run("generated", func(t *testing.T) {
		var total refStats
		runs := 0
		for kind := 0; kind < genKinds; kind++ {
			for _, dim := range []int{1, 3, 4, 15, 17} {
				for _, n := range []int{1, 2, 9, 48} {
					vectors := genVectors(kind, n, dim, uint64(1000*kind+10*dim+n))
					for _, k := range []int{0, 1, 2, 3, 5, n / 2, n - 1, n, n + 3} {
						for _, iters := range []int{0, 1, 2, 8} {
							for seed := uint64(1); seed <= 3; seed++ {
								want, st := refKMeans(vectors, k, iters, seed)
								total.add(st)
								runs++
								name := fmt.Sprintf("kind=%d dim=%d n=%d k=%d iters=%d seed=%d", kind, dim, n, k, iters, seed)
								sameResult(t, name, KMeans(vectors, k, iters, seed), want)
							}
						}
					}
				}
			}
		}
		t.Logf("%d runs, reference took %+v", runs, total)
		if total.repairs == 0 || total.flatSeeds == 0 || total.ties == 0 {
			t.Fatalf("the generated sets must reach the empty-cluster repair, the flat seeding draw and exact ties: %+v", total)
		}
	})
}

// FuzzKMeansMatchesReference is the same comparison over fuzzer-chosen
// shapes: the arguments pick a generator, a size and the clustering
// parameters, so every input is a finite vector set.
func FuzzKMeansMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(genUniform), uint8(40), uint8(15), uint8(8), uint8(8))
	f.Add(uint64(2), uint8(genLattice), uint8(30), uint8(3), uint8(12), uint8(8))
	f.Add(uint64(3), uint8(genFew), uint8(20), uint8(4), uint8(7), uint8(3))
	f.Add(uint64(4), uint8(genBlobs), uint8(60), uint8(17), uint8(60), uint8(8))
	f.Add(uint64(5), uint8(genHuge), uint8(12), uint8(1), uint8(4), uint8(2))
	f.Add(uint64(6), uint8(genTiny), uint8(12), uint8(5), uint8(13), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, kind, n, dim, k, iters uint8) {
		vectors := genVectors(int(kind)%genKinds, 1+int(n)%64, 1+int(dim)%20, seed)
		kk, it := int(k)%(len(vectors)+3), 1+int(iters)%9
		want, _ := refKMeans(vectors, kk, it, seed)
		sameResult(t, "fuzz", KMeans(vectors, kk, it, seed), want)
	})
}

// TestProfilerMatchesReference feeds one event stream to the Profiler
// and to refProfiler in differently cut batches — boundaries inside a
// run of one bucket, empty batches, one event at a time — and compares
// the projected vectors bit for bit.
func TestProfilerMatchesReference(t *testing.T) {
	r := mix.NewRNG(9)
	const intervals = 4
	streams := make([][]vm.Event, intervals)
	for iv := range streams {
		pc := uint64(0x10000)
		for len(streams[iv]) < 5000 {
			switch r.Intn(8) {
			case 0: // a far jump, now and then to a sparse address
				pc = uint64(0x10000) + uint64(r.Intn(1<<14))*4
				if r.Intn(16) == 0 {
					pc = r.Next()
				}
			case 1: // a short backward branch, often inside the bucket
				pc -= uint64(r.Intn(12)) * 4
			}
			streams[iv] = append(streams[iv], vm.Event{PC: pc})
			pc += 4
		}
	}
	cuts := map[string]func() int{
		"whole":  func() int { return 1 << 20 },
		"single": func() int { return 1 },
		"seven":  func() int { return 7 }, // 16 instructions to a bucket: cuts inside runs
		"random": func() int { return r.Intn(300) },
	}
	ref := refProfiler{NewProfiler(DefaultDim, 5)}
	for _, evs := range streams {
		ref.OnEvents(evs)
		ref.EndInterval()
	}
	for name, next := range cuts {
		p := NewProfiler(DefaultDim, 5)
		for _, evs := range streams {
			p.OnEvents(nil)
			for len(evs) > 0 {
				n := min(next(), len(evs)) // 0 is an empty batch
				p.OnEvents(evs[:n])
				evs = evs[n:]
			}
			p.EndInterval()
		}
		got, want := p.Vectors(), ref.Vectors()
		if len(got) != len(want) {
			t.Fatalf("%s: %d vectors, want %d", name, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
					t.Fatalf("%s: vector %d[%d] = %x, want %x", name, i, d, got[i][d], want[i][d])
				}
			}
		}
	}
}

// refAnalyse is Analyse with its profiling pass written out in full:
// one base interval into the profiler, then close the vector, until the
// session is done.
func refAnalyse(p Policy, s *core.Session) (Analysis, error) {
	prof := NewProfiler(DefaultDim, Seed)
	for !s.Done() {
		if s.RunProfile(s.IntervalLen(), prof) == 0 {
			break
		}
		prof.EndInterval()
	}
	vectors := prof.Vectors()
	n := len(vectors)
	if n == 0 {
		return Analysis{}, fmt.Errorf("simpoint: no intervals profiled")
	}
	sub := subsample(vectors)
	chosen := ChooseK(sub, maxK, kmeansIters, bicThreshold, Seed)
	final := KMeans(vectors, chosen.K, kmeansIters, Seed+7)
	work := float64(len(sub))*ladderSum(len(sub)) + float64(n)*float64(final.K)
	s.Meter().ChargeUnits(work * 0.02 * kmeansIters)
	points, weights := Representatives(vectors, final)
	return Analysis{NumIntervals: n, K: final.K, Points: points, Weights: weights}, nil
}

// TestAnalyseFollowsReference requires Analyse to leave the session
// where refAnalyse does, with the same cost report, and to return the
// same analysis to the bit.
func TestAnalyseFollowsReference(t *testing.T) {
	t.Parallel()
	p := New(true)
	for _, bench := range []string{"gzip", "mcf", "perlbmk"} {
		got, want := newSession(t, bench, 50_000), newSession(t, bench, 50_000)
		an, err := p.Analyse(got)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refAnalyse(p, want)
		if err != nil {
			t.Fatal(err)
		}
		if an.NumIntervals != ref.NumIntervals || an.K != ref.K || fmt.Sprint(an.Points) != fmt.Sprint(ref.Points) {
			t.Errorf("%s: analysis %+v, reference %+v", bench, an, ref)
		}
		for i := range ref.Weights {
			if i >= len(an.Weights) || math.Float64bits(an.Weights[i]) != math.Float64bits(ref.Weights[i]) {
				t.Errorf("%s: weights %v, reference %v", bench, an.Weights, ref.Weights)
				break
			}
		}
		if got.Executed() != want.Executed() {
			t.Errorf("%s: session at %d, reference at %d", bench, got.Executed(), want.Executed())
		}
		if g, w := got.Meter().Report(got.Scale()), want.Meter().Report(want.Scale()); fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
			t.Errorf("%s: cost %+v, reference %+v", bench, g, w)
		}
	}
}
