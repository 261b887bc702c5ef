package smp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vm"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dynamic_report.golden with current output")

// TestDynamicReportGolden pins system-level Dynamic Sampling against
// bytes recorded once: TestSMPEquivalence compares two schedules of
// the same code, so a change to the phase detector common to both would
// pass it. The two systems cover a guest that halts early, a bounded
// and an unbounded max_func, and two monitored statistics.
func TestDynamicReportGolden(t *testing.T) {
	t.Parallel()
	type guest struct {
		name, bench string
		scale       int
	}
	cases := []struct {
		name     string
		guests   []guest
		metric   vm.Metric
		sens     float64
		interval uint64
		maxFunc  int
	}{
		{"two guests, one halts early, max_func 3",
			[]guest{{"gzip", "gzip", 50_000}, {"mid", "mcf", 150_000}},
			vm.MetricCPU, 300, 4000, 3},
		{"three guests, max_func 0",
			[]guest{{"gzip", "gzip", 50_000}, {"mcf", "mcf", 50_000}, {"swim", "swim", 50_000}},
			vm.MetricEXC, 100, 4000, 0},
	}

	var b strings.Builder
	for _, c := range cases {
		// Every guest gets the first guest's budget, so a program scaled
		// down further than that halts on its own.
		_, budget := buildGuest(t, c.guests[0].bench, c.guests[0].scale)
		sys := New(Config{})
		for _, g := range c.guests {
			spec, _ := buildGuest(t, g.bench, g.scale)
			img, _ := workload.BuildScaled(*spec, g.scale)
			sys.AddGuest(g.name, img, budget)
		}
		ests, err := sys.DynamicSample(c.metric, c.sens, c.interval, c.maxFunc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s: %s S=%v L=%d max_func=%d\n", c.name, c.metric, c.sens, c.interval, c.maxFunc)
		b.WriteString(sys.Report(ests))
		for i, e := range ests {
			fmt.Fprintf(&b, "  estimate %-10s ipc=%016x samples=%d halted=%v\n",
				e.Name, math.Float64bits(e.IPC), e.Samples, sys.Guests()[i].Machine.Halted())
		}
	}

	path := filepath.Join("testdata", "dynamic_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("DynamicSample report changed (run with -update only if the change is intended):\n got:\n%s\nwant:\n%s", got, want)
	}
}
