// Package simpoint reimplements the SimPoint 3.2 methodology the paper
// compares against: per-interval basic-block vectors collected during a
// profiling pass, random projection to a low dimension, k-means
// clustering with BIC-based selection of the number of clusters, and
// selection of one representative simulation point per cluster with
// cluster-proportional weights.
package simpoint

import (
	"sort"

	"repro/internal/mix"
	"repro/internal/vm"
)

// DefaultDim is the random-projection dimensionality SimPoint 3.2 uses.
const DefaultDim = 15

// Profiler collects per-interval basic-block vectors from the VM event
// stream, already randomly projected to Dim dimensions. Code addresses
// are bucketed at 64-byte granularity — basic blocks in the generated
// workloads are short, so a bucket approximates one or two blocks, which
// is the granularity SimPoint's BBVs capture.
type Profiler struct {
	Dim  int
	seed uint64

	cur     map[uint64]uint64 // code bucket -> instruction count
	vectors [][]float64
}

// NewProfiler creates a profiler with the given projection
// dimensionality (DefaultDim if 0) and projection seed.
func NewProfiler(dim int, seed uint64) *Profiler {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Profiler{Dim: dim, seed: seed, cur: make(map[uint64]uint64)}
}

// OnEvents implements vm.Sink: basic-block accumulation only reads
// each event's PC, so the batch is folded in directly. Straight-line
// code stays in one bucket for several instructions; each such run is
// one counter update.
func (p *Profiler) OnEvents(evs []vm.Event) {
	for i := 0; i < len(evs); {
		bucket, start := evs[i].PC>>6, i
		for i++; i < len(evs) && evs[i].PC>>6 == bucket; i++ {
		}
		p.cur[bucket] += uint64(i - start)
	}
}

// projEntry returns the pseudo-random projection coefficient in [0, 1)
// for (bucket, dimension), derived by hashing — equivalent to a fixed
// random matrix without materialising it.
func (p *Profiler) projEntry(bucket uint64, d int) float64 {
	return float64(mix.Entry(p.seed, bucket, uint64(d))>>11) / float64(1<<53)
}

// EndInterval closes the current interval: the accumulated basic-block
// counts are projected, L1-normalised, and appended to the vector list.
// Buckets are accumulated in sorted order: float addition is not
// associative, so summing in map-iteration order would give the same
// profile different low bits on every run.
func (p *Profiler) EndInterval() {
	buckets := make([]uint64, 0, len(p.cur))
	for bucket := range p.cur {
		buckets = append(buckets, bucket)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	vec := make([]float64, p.Dim)
	var total float64
	for _, bucket := range buckets {
		c := float64(p.cur[bucket])
		total += c
		for d := 0; d < p.Dim; d++ {
			vec[d] += c * p.projEntry(bucket, d)
		}
	}
	if total > 0 {
		for d := range vec {
			vec[d] /= total
		}
	}
	p.vectors = append(p.vectors, vec)
	clear(p.cur)
}

// Vectors returns the projected, normalised per-interval BBVs.
func (p *Profiler) Vectors() [][]float64 { return p.vectors }

// DistanceSq returns squared Euclidean distance between two vectors.
func DistanceSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
