package simpoint

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/sampling"
	"repro/internal/vm"
	"repro/internal/workload"
)

// blobs generates n points around k well-separated centres.
func blobs(n, k, dim int, seed uint64) ([][]float64, []int) {
	r := mix.NewRNG(seed)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for d := range centres[c] {
			centres[c][d] = float64(c) + 0.35*r.Float()
		}
	}
	vecs := make([][]float64, n)
	truth := make([]int, n)
	for i := range vecs {
		c := r.Intn(k)
		truth[i] = c
		v := make([]float64, dim)
		for d := range v {
			v[d] = centres[c][d] + 0.01*(r.Float()-0.5)
		}
		vecs[i] = v
	}
	return vecs, truth
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	vecs, truth := blobs(600, 4, 8, 7)
	res := KMeans(vecs, 4, 20, 99)
	// Every true cluster must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := mapping[truth[i]]; ok && prev != c {
			t.Fatalf("true cluster %d split across k-means clusters", truth[i])
		}
		mapping[truth[i]] = c
	}
	if len(mapping) != 4 {
		t.Fatalf("found %d clusters, want 4", len(mapping))
	}
}

func TestKMeansInvariants(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := 1 + int(kRaw%6)
		vecs, _ := blobs(120, 3, 5, seed)
		res := KMeans(vecs, k, 10, seed)
		if res.K != k {
			return false
		}
		// Assignments in range and sizes consistent.
		sizes := make([]int, k)
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
			sizes[a]++
		}
		total := 0
		for c, n := range sizes {
			if n != res.Sizes[c] {
				return false
			}
			total += n
		}
		if total != len(vecs) {
			return false
		}
		// WCSS matches the assignment.
		var wcss float64
		for i, v := range vecs {
			wcss += DistanceSq(v, res.Centroids[res.Assign[i]])
		}
		return math.Abs(wcss-res.WCSS) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vecs, _ := blobs(300, 3, 6, 11)
	a := KMeans(vecs, 5, 10, 42)
	b := KMeans(vecs, 5, 10, 42)
	if a.WCSS != b.WCSS || a.BIC != b.BIC {
		t.Fatal("k-means must be deterministic in its seed")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignments differ between identical runs")
		}
	}
}

func TestKMeansMoreClustersNeverWorseWCSS(t *testing.T) {
	vecs, _ := blobs(400, 4, 6, 3)
	prev := math.Inf(1)
	for k := 1; k <= 16; k *= 2 {
		res := KMeans(vecs, k, 15, 5)
		if res.WCSS > prev*1.05 { // small slack: Lloyd is a heuristic
			t.Fatalf("WCSS rose sharply at k=%d: %v -> %v", k, prev, res.WCSS)
		}
		prev = res.WCSS
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if res := KMeans(nil, 3, 5, 1); res.K != 0 {
		t.Fatal("empty input")
	}
	vecs, _ := blobs(3, 1, 4, 9)
	res := KMeans(vecs, 10, 5, 1) // k > n clamps
	if res.K != 3 {
		t.Fatalf("k clamped to %d, want 3", res.K)
	}
	// All-identical vectors: one effective cluster, no NaNs.
	same := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	res = KMeans(same, 2, 5, 1)
	if math.IsNaN(res.WCSS) || res.WCSS > 1e-12 {
		t.Fatalf("identical vectors WCSS = %v", res.WCSS)
	}
}

func TestChooseKFindsBlobCount(t *testing.T) {
	vecs, _ := blobs(800, 6, 10, 21)
	res := ChooseK(vecs, 64, 15, 0.9, 77)
	if res.K < 4 || res.K > 16 {
		t.Fatalf("ChooseK picked k=%d for 6 well-separated blobs", res.K)
	}
}

func TestProfilerVectors(t *testing.T) {
	p := NewProfiler(8, 1)
	ev := []vm.Event{{PC: 0x1000}}
	for i := 0; i < 100; i++ {
		p.OnEvents(ev)
	}
	p.EndInterval()
	ev2 := []vm.Event{{PC: 0x9000}}
	for i := 0; i < 100; i++ {
		p.OnEvents(ev2)
	}
	p.EndInterval()
	vecs := p.Vectors()
	if len(vecs) != 2 || len(vecs[0]) != 8 {
		t.Fatalf("vectors %dx%d", len(vecs), len(vecs[0]))
	}
	if math.Sqrt(DistanceSq(vecs[0], vecs[1])) < 0.1 {
		t.Fatal("different code must produce distant BBVs")
	}
	// Same code distribution => same vector regardless of count.
	p2 := NewProfiler(8, 1)
	for i := 0; i < 500; i++ {
		p2.OnEvents(ev)
	}
	p2.EndInterval()
	if math.Sqrt(DistanceSq(vecs[0], p2.Vectors()[0])) > 1e-12 {
		t.Fatal("L1 normalisation broken: scaled counts changed the vector")
	}
}

func TestProfilerProjectionDeterminism(t *testing.T) {
	a, b := NewProfiler(15, 5), NewProfiler(15, 5)
	if a.projEntry(123, 7) != b.projEntry(123, 7) {
		t.Fatal("projection must be deterministic in the seed")
	}
	c := NewProfiler(15, 6)
	if a.projEntry(123, 7) == c.projEntry(123, 7) {
		t.Fatal("different seeds must give different projections")
	}
	v := a.projEntry(55, 3)
	if v < 0 || v >= 1 {
		t.Fatalf("projection entry %v outside [0,1)", v)
	}
}

func TestPolicyAccuracyOnSmallBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	spec, _ := workload.ByName("mcf")
	opts := core.Options{Scale: 20_000}
	s := core.NewSession(spec, opts)
	res, err := New(false).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	sb := core.NewSession(spec, opts)
	base, err := sampling.FullTiming{}.Run(sb)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.ErrorVs(base); e > 0.20 {
		t.Fatalf("SimPoint error %.1f%% too large", e*100)
	}
	if res.Samples == 0 || res.Samples > 300 {
		t.Fatalf("simpoints = %d", res.Samples)
	}
	// At this tiny scale the benchmark has only ~300 intervals, so the
	// per-point cost is a large fraction; the full-scale speedup is
	// checked by the figure harness.
	if res.Cost.Units >= base.Cost.Units/5 {
		t.Fatalf("SimPoint not fast enough: %.3g vs %.3g", res.Cost.Units, base.Cost.Units)
	}
}

// TestChosenK pins the number of clusters the BIC ladder settles on for
// three benchmarks at scale 40 000.
func TestChosenK(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for bench, want := range map[string]int{"gzip": 8, "mcf": 12, "ammp": 6} {
		an, err := New(false).Analyse(newSession(t, bench, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		if an.K != want {
			t.Errorf("%s: K = %d, want %d", bench, an.K, want)
		}
	}
}

func TestAnalyseProducesSortedWeightedPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	spec, _ := workload.ByName("gzip")
	s := core.NewSession(spec, core.Options{Scale: 50_000})
	an, err := New(false).Analyse(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Points) == 0 || len(an.Points) != len(an.Weights) {
		t.Fatalf("points/weights %d/%d", len(an.Points), len(an.Weights))
	}
	var wsum float64
	for i, p := range an.Points {
		if i > 0 && p <= an.Points[i-1] {
			t.Fatal("points must be strictly ascending")
		}
		if p < 0 || p >= an.NumIntervals {
			t.Fatalf("point %d outside [0,%d)", p, an.NumIntervals)
		}
		wsum += an.Weights[i]
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}
