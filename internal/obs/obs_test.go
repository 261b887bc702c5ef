package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "mode", "fast")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "mode", "fast"); again != c {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if other := r.Counter("reqs_total", "mode", "event"); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("mips")
	g.Set(3.5)
	g.Add(0.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}

	h := r.Histogram("lat_seconds", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	// First registration wins; bounds of later callers are ignored.
	if again := r.Histogram("lat_seconds", []float64{7}); again != h {
		t.Fatal("same name must return the same histogram")
	}
	if len(h.bounds) != 2 {
		t.Fatalf("bounds = %v", h.bounds)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y", "a", "b")
	h := r.Histogram("z", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *TransitionTrace
	tr.Record(Transition{Bench: "gzip"})
	if tr.Total() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil trace must stay empty")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge("dual")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("shared_total").Inc()
				r.Gauge("g", "w", "x").Set(float64(j))
				r.Histogram("h", []float64{100, 500}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", got, goroutines*perG)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "mode", "fast").Add(7)
	r.Counter("b_total", "mode", "event").Add(2)
	r.Gauge("a_gauge").Set(1.25)
	h := r.Histogram("c_seconds", []float64{1, 10}, "op", "load")
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# TYPE a_gauge gauge
a_gauge 1.25
# TYPE b_total counter
b_total{mode="event"} 2
b_total{mode="fast"} 7
# TYPE c_seconds histogram
c_seconds_bucket{op="load",le="1"} 1
c_seconds_bucket{op="load",le="10"} 2
c_seconds_bucket{op="load",le="+Inf"} 3
c_seconds_sum{op="load"} 55.5
c_seconds_count{op="load"} 3
`
	if got != want {
		t.Fatalf("prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total").Add(3)
	r.Histogram("h_s", []float64{1}, "k", "v").Observe(2)
	snap := r.Snapshot()
	if snap["n_total"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[`h_s_count{k="v"}`] != 1 || snap[`h_s_sum{k="v"}`] != 2 {
		t.Fatalf("snapshot histogram entries = %v", snap)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "p", `a"b\c`).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{p="a\"b\\c"} 1`) {
		t.Fatalf("escaping broken:\n%s", sb.String())
	}
}
