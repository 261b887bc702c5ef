package simpoint

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sampling"
)

// Policy is the SimPoint sampling policy: an offline BBV profiling pass,
// clustering, then detailed simulation of one representative interval
// per cluster, combined with cluster-proportional weights.
//
// The paper reports SimPoint two ways and so does this Policy:
//
//   - ChargeProfiling == false ("SimPoint"): only the simulation-point
//     dispatch (checkpoint restores), warm-up, and detailed intervals
//     are charged, as in the paper's 422x bar.
//   - ChargeProfiling == true ("SimPoint+prof"): the full profiling pass
//     and the clustering tool are charged too, which collapses the
//     speedup to SMARTS levels (the paper's 9.5x bar).
type Policy struct {
	// MaxK is the maximum number of clusters (the paper uses 300).
	MaxK int
	// Dim is the BBV projection dimensionality (15).
	Dim int
	// KMeansIters bounds Lloyd iterations per k (default 8).
	KMeansIters int
	// BICThreshold is the SimPoint 3.2 k-selection threshold (0.9).
	BICThreshold float64
	// SubSample caps the number of vectors used for k selection
	// (default 1500; the final clustering uses all vectors).
	SubSample int
	// WarmIntervals is the detailed warm-up before each simulation
	// point, in base intervals (the paper uses 1).
	WarmIntervals int
	// ChargeProfiling selects the "+prof" accounting.
	ChargeProfiling bool
	// Seed makes projection and clustering deterministic.
	Seed uint64
}

// New returns the paper's configuration (300 clusters max, 15-dim
// projection, 1-interval warm-up).
func New(chargeProfiling bool) Policy {
	return Policy{
		MaxK:            300,
		Dim:             DefaultDim,
		KMeansIters:     8,
		BICThreshold:    0.9,
		SubSample:       1500,
		WarmIntervals:   2,
		ChargeProfiling: chargeProfiling,
		Seed:            0x51a9,
	}
}

// The policy names of the two accounting variants.
const (
	nameNoProf   = "SimPoint"
	nameWithProf = "SimPoint+prof"
)

// Name implements sampling.Policy.
func (p Policy) Name() string {
	if p.ChargeProfiling {
		return nameWithProf
	}
	return nameNoProf
}

// Analysis is the outcome of the profiling + clustering stage.
type Analysis struct {
	NumIntervals int
	K            int
	// Points are the chosen simulation points as interval indices,
	// ascending.
	Points []int
	// Weights are the cluster weights for each point (sum to 1).
	Weights []float64
}

// Analyse runs the profiling pass on the session and clusters the BBVs.
// The session is left at the end of the benchmark; callers Reset() it
// before the measurement pass.
func (p Policy) Analyse(s *core.Session) (Analysis, error) {
	interval := s.IntervalLen()
	prof := NewProfiler(p.Dim, p.Seed)
	for !s.Done() {
		ex := s.RunProfile(interval, prof)
		if ex == 0 {
			break
		}
		prof.EndInterval()
	}
	vectors := prof.Vectors()
	n := len(vectors)
	if n == 0 {
		return Analysis{}, fmt.Errorf("simpoint: no intervals profiled")
	}

	// Model selection on a stride subsample, final clustering on all.
	sub := vectors
	if p.SubSample > 0 && n > p.SubSample {
		stride := n / p.SubSample
		sub = make([][]float64, 0, p.SubSample)
		for i := 0; i < n; i += stride {
			sub = append(sub, vectors[i])
		}
	}
	iters := p.KMeansIters
	if iters <= 0 {
		iters = 8
	}
	chosen := ChooseK(sub, p.MaxK, iters, p.BICThreshold, p.Seed)
	final := KMeans(vectors, chosen.K, iters, p.Seed+7)

	// Clustering tool cost: proportional to the k-means work performed.
	work := float64(len(sub))*ladderSum(p.MaxK, len(sub)) + float64(n)*float64(final.K)
	s.Meter().ChargeUnits(work * 0.02 * float64(iters))

	// Representative per cluster: the interval closest to the centroid.
	points := make([]int, 0, final.K)
	weights := make([]float64, 0, final.K)
	for c := 0; c < final.K; c++ {
		if final.Sizes[c] == 0 {
			continue
		}
		best, bestD := -1, 0.0
		for i, v := range vectors {
			if final.Assign[i] != c {
				continue
			}
			d := DistanceSq(v, final.Centroids[c])
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		points = append(points, best)
		weights = append(weights, float64(final.Sizes[c])/float64(n))
	}
	// Sort points ascending, carrying weights.
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]] < points[idx[b]] })
	sp, sw := make([]int, len(points)), make([]float64, len(points))
	for i, j := range idx {
		sp[i], sw[i] = points[j], weights[j]
	}
	return Analysis{NumIntervals: n, K: final.K, Points: sp, Weights: sw}, nil
}

// ladderSum approximates the total k-means work of ChooseK's candidate
// ladder (for the clustering-tool host-cost charge).
func ladderSum(maxK, n int) float64 {
	if maxK > n {
		maxK = n
	}
	sum := 0.0
	for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256} {
		if k >= maxK {
			break
		}
		sum += float64(k)
	}
	return sum + float64(maxK)
}

// Run implements sampling.Policy: one execution of the pipeline,
// reported under the accounting ChargeProfiling selects.
func (p Policy) Run(s *core.Session) (sampling.Result, error) {
	_, noProf, withProf, err := p.RunBoth(s)
	if p.ChargeProfiling {
		return withProf, err
	}
	return noProf, err
}

// RunBoth is the one body of the SimPoint pipeline: profile and
// cluster, set the profiling pass's cost aside, then simulate each
// simulation point with warm-up and combine with cluster weights. One
// execution yields the analysis and the result under both accountings
// ("SimPoint", then "SimPoint+prof"); they differ only in Policy and
// Cost. The two passes are metered separately and the "+prof" cost is
// the sum of the two reports, so it is the "SimPoint" cost plus the
// profiling report field for field.
func (p Policy) RunBoth(s *core.Session) (an Analysis, noProf, withProf sampling.Result, err error) {
	res := sampling.Result{Bench: s.Spec().Name}
	an, err = p.Analyse(s)
	if err != nil {
		return an, res, res, err
	}
	res.Instructions = s.Executed()
	profCost := s.Meter().Report(s.Scale())
	s.ResetMeter()

	// Measurement pass from a fresh start (cold structures, as when
	// dispatching from checkpoints collected during profiling).
	s.Reset()
	interval := s.IntervalLen()
	warm := interval * uint64(p.WarmIntervals)

	// Cluster-weighted combination in cycle space (consistent with the
	// sampling.Estimator convention): cycles-per-instruction of each
	// simulation point, weighted by cluster share.
	var cpi, wsum float64
	for j, point := range an.Points {
		target := uint64(point) * interval
		warmStart := target
		if warmStart >= warm {
			warmStart -= warm
		} else {
			warmStart = 0
		}
		if warmStart > s.Executed() {
			// Dispatch to the simulation point via the checkpoint store
			// when the session has one; free either way (the modelled
			// cost is the fixed restore overhead charged below,
			// identically whether or not the store had a hit).
			s.FastForwardVia(nil, warmStart)
		}
		s.Meter().ChargeRestore()
		if target > s.Executed() {
			s.RunDetailWarm(target - s.Executed())
		}
		ipc, ex := s.RunTimed(interval)
		if ex == 0 {
			break
		}
		if ipc > 0 {
			cpi += an.Weights[j] / ipc
			wsum += an.Weights[j]
		}
		res.Samples++
	}
	if wsum > 0 && cpi > 0 {
		res.EstIPC = wsum / cpi
	}
	res.Cost = s.Meter().Report(s.Scale())

	noProf, withProf = res, res
	noProf.Policy = nameNoProf
	withProf.Policy = nameWithProf
	withProf.Cost = res.Cost.Add(profCost)
	return an, noProf, withProf, nil
}
