package experiments

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/sampling"
	"repro/internal/vm"
)

// testRunner returns a small-subset runner for fast integration tests.
func testRunner() *Runner {
	return NewRunner(Options{Scale: 50_000, Benchmarks: []string{"gzip", "mcf"}})
}

func TestMemoisation(t *testing.T) {
	t.Parallel()
	r := testRunner()
	p := sampling.NewDynamic(vm.MetricCPU, 300, 1, 0)
	a, err := r.Run("gzip", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("gzip", p)
	if err != nil {
		t.Fatal(err)
	}
	if a.EstIPC != b.EstIPC || a.Cost.Units != b.Cost.Units {
		t.Fatal("memoised result differs")
	}
}

// Run(FullTiming{}) and Baseline name one policy, "Full timing", and
// share one memo slot. A Baseline after a Run must still carry the
// interval trace Figures 2 and 4 read, bit for bit what a fresh
// runner's Baseline returns.
func TestBaselineAfterFullTimingRun(t *testing.T) {
	t.Parallel()
	newRunner := func() *Runner { return NewRunner(Options{Scale: 50_000, Benchmarks: []string{"perlbmk"}}) }
	r := newRunner()
	if _, err := r.Run("perlbmk", sampling.FullTiming{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Baseline("perlbmk")
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRunner().Baseline("perlbmk")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) == 0 || len(got.Trace) != len(want.Trace) {
		t.Fatalf("Baseline after Run(FullTiming{}) traces %d intervals, a fresh Baseline %d", len(got.Trace), len(want.Trace))
	}
	if math.Float64bits(got.EstIPC) != math.Float64bits(want.EstIPC) {
		t.Errorf("EstIPC %x, fresh %x", math.Float64bits(got.EstIPC), math.Float64bits(want.EstIPC))
	}
	for i, w := range want.Trace {
		if g := got.Trace[i]; g != w || math.Float64bits(g.IPC) != math.Float64bits(w.IPC) {
			t.Fatalf("interval %d: %+v, fresh %+v", i, g, w)
		}
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	t.Parallel()
	r := testRunner()
	if _, err := r.Run("nosuch", sampling.FullTiming{}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestRunAllAndAggregate(t *testing.T) {
	t.Parallel()
	r := testRunner()
	policies := []sampling.Policy{
		sampling.FullTiming{},
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
	}
	results, err := r.RunAll(policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Benchmarks() {
		if len(results[b]) < 2 {
			t.Fatalf("%s missing results", b)
		}
	}
	agg := AggregateFor(results, r.Benchmarks(), "CPU-300-1M-∞")
	if agg.MeanIPC <= 0 || agg.Speedup <= 1 {
		t.Fatalf("aggregate %+v", agg)
	}
	base := AggregateFor(results, r.Benchmarks(), "Full timing")
	if base.MeanErrPct != 0 || base.Speedup != 1 {
		t.Fatalf("baseline aggregate %+v", base)
	}
}

func TestSimPointBothVariantsFromOneRun(t *testing.T) {
	t.Parallel()
	r := testRunner()
	an, err := r.Analysis("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if an.K == 0 || len(an.Points) == 0 {
		t.Fatalf("analysis %+v", an)
	}
	noProf, ok1 := r.lookup("gzip", "SimPoint")
	withProf, ok2 := r.lookup("gzip", "SimPoint+prof")
	if !ok1 || !ok2 {
		t.Fatal("both SimPoint variants must be stored by one execution")
	}
	if withProf.Cost.Units <= noProf.Cost.Units {
		t.Fatal("profiling variant must cost more")
	}
	if noProf.EstIPC != withProf.EstIPC {
		t.Fatal("the two variants are the same measurement")
	}
}

func TestParetoOptimal(t *testing.T) {
	t.Parallel()
	aggs := []Aggregate{
		{Policy: "a", MeanErrPct: 1, Speedup: 100},
		{Policy: "b", MeanErrPct: 2, Speedup: 50}, // dominated by a
		{Policy: "c", MeanErrPct: 0.5, Speedup: 10},
		{Policy: "d", MeanErrPct: 0.5, Speedup: 10}, // tie: both optimal
	}
	opt := ParetoOptimal(aggs)
	if !opt[0] || opt[1] || !opt[2] || !opt[3] {
		t.Fatalf("pareto = %v", opt)
	}
}

func TestTable1Renders(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fetch/Issue/Retire Width", "190 processor cycles", "16K-entry gshare"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFiguresRenderOnSubset(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration render is slow")
	}
	r := NewRunner(Options{Scale: 50_000, Benchmarks: []string{"gzip", "perlbmk"}})
	checks := []struct {
		name string
		run  func(*Runner, *bytes.Buffer) error
		want string
	}{
		{"table2", func(r *Runner, b *bytes.Buffer) error { return Table2(r, b) }, "gzip"},
		{"fig2", func(r *Runner, b *bytes.Buffer) error { return Figure2(r, b) }, "perlbmk"},
		{"fig3", func(r *Runner, b *bytes.Buffer) error { return Figure3(r, b) }, "SMARTS"},
		{"fig4", func(r *Runner, b *bytes.Buffer) error { return Figure4(r, b) }, "SimPoint"},
		{"fig8", func(r *Runner, b *bytes.Buffer) error { return Figure8(r, b) }, "CPU-300-1M-∞"},
		{"fig9", func(r *Runner, b *bytes.Buffer) error { return Figure9(r, b) }, "SimPoint+prof"},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		if err := c.run(r, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s output missing %q:\n%s", c.name, c.want, buf.String())
		}
		if c.name == "fig3" {
			checkFig3DynamicRow(t, r, buf.String())
		}
	}
}

// checkFig3DynamicRow requires Figure 3's Dynamic Sampling row to time
// the interval three after a detection: the detection's own interval,
// one settle interval at full speed, one of detailed warming, then '#'.
func checkFig3DynamicRow(t *testing.T, r *Runner, out string) {
	t.Helper()
	_, row, ok := strings.Cut(out, "c. Dyn.Sampling")
	row, _, _ = strings.Cut(row, "\n")
	ds, err := r.Run("gzip", sampling.NewDynamic(vm.MetricCPU, 300, 1, 0))
	if !ok || err != nil || len(ds.Detections) == 0 {
		t.Fatalf("fig3: no Dynamic row or no detections (err %v):\n%s", err, out)
	}
	if d := ds.Detections[0]; d+3 >= uint64(len(row)) || row[d+3] != '#' {
		t.Errorf("fig3: first detection %d, Dynamic row %q has no '#' at %d", d, row, d+3)
	}
}

func TestCSVExports(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{Scale: 100_000, Benchmarks: []string{"gzip", "perlbmk"}})
	files := map[string]*bytes.Buffer{}
	err := WriteAllCSV(r, func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		files[name] = buf
		return nopCloser{buf}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, buf := range files {
		rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("%s: invalid CSV: %v", name, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s row %d: %d fields, header has %d", name, i, len(row), len(rows[0]))
			}
		}
	}
	if len(files) != 4 {
		t.Fatalf("exported %d files, want 4", len(files))
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
