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
	// ChargeProfiling selects the "+prof" accounting.
	ChargeProfiling bool
}

// Seed makes SimPoint's projection and clustering deterministic.
const Seed uint64 = 0x51a9

// The paper's clustering configuration. BBVs are projected to DefaultDim
// dimensions.
const (
	maxK         = 300 // maximum number of clusters
	kmeansIters  = 8   // bound on Lloyd iterations per k
	bicThreshold = 0.9 // SimPoint 3.2's k-selection threshold
	// subSample is the size k selection thins its input towards: with
	// more vectors than this it takes every ⌊n/subSample⌋-th, which
	// admits up to 2·subSample − 1 of them. The final clustering uses
	// all vectors.
	subSample = 1500
)

// New returns the paper's configuration (300 clusters max, 15-dim
// projection) under the accounting chargeProfiling selects. Each
// simulation point is warmed in detail for two base intervals, the
// driver's Measure warm-up.
func New(chargeProfiling bool) Policy {
	return Policy{ChargeProfiling: chargeProfiling}
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
	prof := NewProfiler(DefaultDim, Seed)
	sampling.NewDriver(s, p.Name()).Walk(prof, 0, func(uint64) { prof.EndInterval() })
	vectors := prof.Vectors()
	n := len(vectors)
	if n == 0 {
		return Analysis{}, fmt.Errorf("simpoint: no intervals profiled")
	}

	// Model selection on a stride subsample, final clustering on all.
	sub := subsample(vectors)
	chosen := ChooseK(sub, maxK, kmeansIters, bicThreshold, Seed)
	final := KMeans(vectors, chosen.K, kmeansIters, Seed+7)

	// Clustering tool cost: proportional to the k-means work performed.
	work := float64(len(sub))*ladderSum(len(sub)) + float64(n)*float64(final.K)
	s.Meter().ChargeUnits(work * 0.02 * kmeansIters)

	points, weights := Representatives(vectors, final)
	return Analysis{NumIntervals: n, K: final.K, Points: points, Weights: weights}, nil
}

// Representatives picks one vector per non-empty cluster of cl — the
// member closest to the centroid, the first of equals — and returns
// their indices in ascending order, each with its cluster's share of
// the vectors.
func Representatives(vectors [][]float64, cl KMeansResult) (points []int, weights []float64) {
	type rep struct {
		point  int
		weight float64
	}
	var reps []rep
	for c, size := range cl.Sizes {
		if size == 0 {
			continue
		}
		best, bestD := -1, 0.0
		for i, v := range vectors {
			if cl.Assign[i] != c {
				continue
			}
			if d := DistanceSq(v, cl.Centroids[c]); best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		reps = append(reps, rep{best, float64(size) / float64(len(vectors))})
	}
	sort.Slice(reps, func(a, b int) bool { return reps[a].point < reps[b].point })
	for _, r := range reps {
		points, weights = append(points, r.point), append(weights, r.weight)
	}
	return points, weights
}

// subsample returns the vectors k selection runs on (see subSample).
func subsample(vectors [][]float64) [][]float64 {
	n := len(vectors)
	if n <= subSample {
		return vectors
	}
	sub := make([][]float64, 0, subSample)
	for i := 0; i < n; i += n / subSample {
		sub = append(sub, vectors[i])
	}
	return sub
}

// ladderSum approximates the total k-means work of ChooseK's candidate
// ladder over n vectors (for the clustering-tool host-cost charge).
func ladderSum(n int) float64 {
	sum := 0.0
	for _, k := range ladder(min(maxK, n)) {
		sum += float64(k)
	}
	return sum
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
	instructions := s.Executed()
	profCost := s.Meter().Report(s.Scale())
	s.ResetMeter()

	// Measurement pass from a fresh start (cold structures, as when
	// dispatching from checkpoints collected during profiling): each
	// simulation point is reached by checkpoint dispatch. The points
	// combine in cycle space (consistent with the sampling.Estimator
	// convention): cycles-per-instruction of each simulation point,
	// weighted by cluster share.
	s.Reset()
	d := sampling.NewDriver(s, p.Name())
	var cpi, wsum float64
	d.Measure(an.Points, true, func(j int, ipc float64) {
		if ipc > 0 {
			cpi += an.Weights[j] / ipc
			wsum += an.Weights[j]
		}
	})
	res = d.Result()
	res.Instructions = instructions
	res.EstIPC = 0
	if wsum > 0 && cpi > 0 {
		res.EstIPC = wsum / cpi
	}

	noProf, withProf = res, res
	noProf.Policy = nameNoProf
	withProf.Policy = nameWithProf
	withProf.Cost = res.Cost.Add(profCost)
	return an, noProf, withProf, nil
}
