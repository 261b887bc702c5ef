package timing

import (
	"testing"

	"repro/internal/vm"
)

// benchEvents is the stream the bench ledger's timing stage uses in
// shape: one post-initialisation window each of gzip and mcf.
func benchEvents() []vm.Event {
	s := streams()
	return append(append([]vm.Event(nil), s["gzip"][25_000:50_000]...), s["mcf"][25_000:50_000]...)
}

func benchSink(b *testing.B, sink vm.BatchSink) {
	evs := benchEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for at := 0; at < len(evs); at += 256 {
			sink.OnEvents(evs[at:min(at+256, len(evs))])
		}
	}
	b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkOnEvents measures the detail model alone, in default-size
// batches (go test -run '^$' -bench OnEvents ./internal/timing).
func BenchmarkOnEvents(b *testing.B) { benchSink(b, NewCore(DefaultConfig())) }

// BenchmarkWarmOnEvents is the same for functional warming.
func BenchmarkWarmOnEvents(b *testing.B) {
	benchSink(b, NewCore(DefaultConfig()).WarmSink().(vm.BatchSink))
}
