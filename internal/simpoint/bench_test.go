package simpoint

import (
	"testing"

	"repro/internal/vm"
)

// BenchmarkChooseK is the clustering the sweep pays per benchmark: the
// whole k ladder up to 300 over ammp's BBVs (n ≈ 1 400 at scale 40 000).
// "reference" runs the same ladder through refKMeans; the ratio of the
// two is the kernel's gain.
func BenchmarkChooseK(b *testing.B) {
	vectors := profileBBVs(b, "ammp", 40_000)
	p := New(false)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ChooseK(vectors, maxK, kmeansIters, bicThreshold, p.Seed)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range ladder(maxK) {
				refKMeans(vectors, k, kmeansIters, p.Seed+uint64(k))
			}
		}
	})
}

// recorder keeps the event batches of a profiling pass as delivered.
type recorder struct{ batches [][]vm.Event }

func (r *recorder) OnEvents(evs []vm.Event) {
	r.batches = append(r.batches, append([]vm.Event(nil), evs...))
}

// BenchmarkProfilerOnEvents replays gzip's first 100 profiled intervals
// into a Profiler, batch for batch as the VM delivered them.
func BenchmarkProfilerOnEvents(b *testing.B) {
	s := newSession(b, "gzip", 40_000)
	var intervals [][][]vm.Event
	var events int64
	for len(intervals) < 100 && !s.Done() {
		var rec recorder
		events += int64(s.RunProfile(s.IntervalLen(), &rec))
		intervals = append(intervals, rec.batches)
	}
	p := NewProfiler(DefaultDim, 1)
	b.SetBytes(events) // MB/s reads as Minstr/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batches := range intervals {
			for _, evs := range batches {
				p.OnEvents(evs)
			}
			clear(p.cur) // EndInterval without the projection
		}
	}
}
