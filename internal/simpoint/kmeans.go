package simpoint

import (
	"math"

	"repro/internal/mix"
)

// KMeansResult is the outcome of one clustering run.
type KMeansResult struct {
	K         int
	Centroids [][]float64
	Assign    []int
	Sizes     []int
	WCSS      float64 // within-cluster sum of squared distances
	BIC       float64
}

// KMeans clusters vectors into k groups with k-means++ seeding and at
// most iters Lloyd iterations. It is deterministic in seed. Empty
// clusters are repaired by re-seeding them with the point farthest from
// its centroid. Vectors must have finite coordinates.
//
// The result is, bit for bit, that of the textbook loops (refKMeans on
// the test side): every vector goes to the centroid first in (squared
// distance, index) order, with each distance summed as DistanceSq sums
// it. What is skipped is only work whose outcome is already decided;
// see nearer, the seeding carry and the converged final pass below.
func KMeans(vectors [][]float64, k, iters int, seed uint64) KMeansResult {
	n := len(vectors)
	if n == 0 {
		return KMeansResult{K: 0}
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	dim := len(vectors[0])
	rng := mix.NewRNG(seed)

	// Centroid c is cen[c*dim:(c+1)*dim]; sums is laid out the same way.
	cen, sums := make([]float64, k*dim), make([]float64, k*dim)
	assign := make([]int, n)
	dist := make([]float64, n) // squared distance to centroid assign[i]
	sizes := make([]int, k)

	// k-means++ seeding. (assign, dist) follows each vector's nearest
	// seed, first in index order among equals.
	copy(cen, vectors[rng.Intn(n)])
	for i, v := range vectors {
		dist[i] = DistanceSq(v, cen[:dim])
	}
	for c := 1; c < k; c++ {
		var sum float64
		for _, d := range dist {
			sum += d
		}
		var next int
		if sum <= 0 {
			next = rng.Intn(n)
		} else {
			target := rng.Float() * sum
			for i, d := range dist {
				target -= d
				if target <= 0 {
					next = i
					break
				}
			}
		}
		copy(cen[c*dim:], vectors[next])
		for i, v := range vectors {
			assign[i], dist[i] = nearer(v, cen, c, c+1, assign[i], dist[i])
		}
	}

	// Lloyd iterations. Iteration 0 has nothing to assign: the nearest
	// seed is what a scan of the seeds would find. An iteration that
	// moved no vector and repaired no cluster recomputes every centroid
	// from the members, in the order, it was computed from before: the
	// centroids it leaves are the ones it scanned, so (assign, dist,
	// sizes) already are the final pass — settled.
	settled := false
	for it := 0; it < iters; it++ {
		changed := it == 0
		if it > 0 {
			for i, v := range vectors {
				best, d := nearer(v, cen, 0, k, 0, math.Inf(1))
				if best != assign[i] {
					changed = true
				}
				assign[i], dist[i] = best, d
			}
		}
		// Update step.
		clear(sums)
		clear(sizes)
		for i, v := range vectors {
			c := assign[i]
			sizes[c]++
			sum := sums[c*dim : (c+1)*dim]
			for d, x := range v {
				sum[d] += x
			}
		}
		repaired := false
		for c := 0; c < k; c++ {
			row, sum := cen[c*dim:(c+1)*dim], sums[c*dim:(c+1)*dim]
			if sizes[c] == 0 {
				// Repair: re-seed on the globally farthest point.
				repaired = true
				far, farD := 0, -1.0
				for i, v := range vectors {
					a := assign[i]
					if d := DistanceSq(v, cen[a*dim:(a+1)*dim]); d > farD {
						far, farD = i, d
					}
				}
				copy(row, vectors[far])
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := range row {
				row[d] = sum[d] * inv
			}
		}
		if !changed {
			settled = !repaired
			break
		}
	}

	// Final assignment and WCSS against the last centroids.
	if !settled {
		clear(sizes)
		for i, v := range vectors {
			assign[i], dist[i] = nearer(v, cen, 0, k, 0, math.Inf(1))
			sizes[assign[i]]++
		}
	}
	var wcss float64
	for _, d := range dist {
		wcss += d
	}

	res := KMeansResult{
		K:         k,
		Centroids: make([][]float64, k),
		Assign:    assign,
		Sizes:     sizes,
		WCSS:      wcss,
	}
	for c := range res.Centroids {
		res.Centroids[c] = cen[c*dim : (c+1)*dim : (c+1)*dim]
	}
	res.BIC = bic(res, n, dim)
	return res
}

// nearer scans rows lo to hi-1 of the flat centroid array cen in index
// order for rows strictly closer to v than bestD, and returns the
// closest of them with its squared distance, or best and bestD as
// given. A row's distance is summed in DistanceSq's order and abandoned
// once a partial sum reaches bestD: the terms are squares, so in IEEE
// arithmetic partial sums never decrease, and a partial sum at or above
// the bound proves the full one is not below it. A row that wins is
// always summed to the end.
func nearer(v, cen []float64, lo, hi, best int, bestD float64) (int, float64) {
	dim := len(v)
next:
	for c := lo; c < hi; c++ {
		row := cen[c*dim : (c+1)*dim]
		var s float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			if s >= bestD {
				continue next
			}
			d0, d1, d2, d3 := v[j]-row[j], v[j+1]-row[j+1], v[j+2]-row[j+2], v[j+3]-row[j+3]
			s += d0 * d0
			s += d1 * d1
			s += d2 * d2
			s += d3 * d3
		}
		for ; j < dim; j++ {
			d := v[j] - row[j]
			s += d * d
		}
		if s < bestD {
			best, bestD = c, s
		}
	}
	return best, bestD
}

// DefaultNoiseVar is the per-dimension variance floor used in BIC
// scoring. Projected per-interval BBVs carry irreducible finite-sample
// noise (interval boundaries cut basic blocks, maintenance episodes land
// at random offsets); without a floor, BIC rewards splitting that noise
// into ever-smaller clusters and the k selection runs away to the
// maximum. The floor makes the BIC curve knee at the workload's true
// behaviour count.
const DefaultNoiseVar = 2e-3

// bic computes the Bayesian Information Criterion for a spherical-
// Gaussian mixture fit (the X-means/SimPoint formulation). Larger is
// better.
func bic(r KMeansResult, n, dim int) float64 {
	if n <= r.K {
		return math.Inf(-1)
	}
	variance := max(r.WCSS/float64(n-r.K), DefaultNoiseVar)
	var ll float64
	for _, nj := range r.Sizes {
		if nj == 0 {
			continue
		}
		fnj := float64(nj)
		ll += -fnj/2*math.Log(2*math.Pi) -
			fnj*float64(dim)/2*math.Log(variance) -
			(fnj-1)/2 +
			fnj*math.Log(fnj/float64(n))
	}
	params := float64(r.K) * float64(dim+1)
	return ll - params/2*math.Log(float64(n))
}

// ladder returns ChooseK's candidate k values up to maxK: roughly
// geometric with intermediate points, so the selected k discriminates
// between workloads with different phase-population sizes.
func ladder(maxK int) []int {
	var ks []int
	for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256} {
		if k >= maxK {
			break
		}
		ks = append(ks, k)
	}
	return append(ks, maxK)
}

// ChooseK runs k-means over a geometric ladder of candidate k values up
// to maxK and returns the clustering of the smallest k whose BIC reaches
// at least threshold of the observed BIC range (SimPoint 3.2's
// selection rule; Hamerly et al. recommend 0.9).
func ChooseK(vectors [][]float64, maxK, iters int, threshold float64, seed uint64) KMeansResult {
	n := len(vectors)
	if n == 0 {
		return KMeansResult{}
	}
	if maxK > n {
		maxK = n
	}
	if maxK < 1 {
		maxK = 1
	}
	if threshold <= 0 || threshold > 1 {
		threshold = 0.9
	}
	ks := ladder(maxK)
	results := make([]KMeansResult, len(ks))
	best, worst := math.Inf(-1), math.Inf(1)
	for i, k := range ks {
		results[i] = KMeans(vectors, k, iters, seed+uint64(k))
		if b := results[i].BIC; !math.IsInf(b, 0) {
			if b > best {
				best = b
			}
			if b < worst {
				worst = b
			}
		}
	}
	cut := worst + threshold*(best-worst)
	for _, r := range results {
		if r.BIC >= cut {
			return r
		}
	}
	return results[len(results)-1]
}
