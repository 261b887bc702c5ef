package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test checks the
// harness against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedMetric           `json:"end_to_end"`
	PerLayer  []namedMetric           `json:"per_layer"`
}

type namedMetric struct{ Name, Unit string }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, where string, want []namedMetric, got map[string]metric) {
	t.Helper()
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q does not match %s", where, m.Name, nameRE)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", where, m.Name)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v is not finite", where, m.Name, g.Value)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", where, len(got), len(want))
	}
}

// TestQuick runs the whole harness in its -quick configuration, in
// process: every workload untraced and traced, checked against the
// metric lists of BENCHMARK.json.
func TestQuick(t *testing.T) {
	var spec benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
	}

	out := t.TempDir()
	o := orchestration{Workloads: workloadNames, Seed: 1, Seconds: 0.2, Reps: 1, Quick: true, OutDir: out, Run: runWorkload}
	res, err := o.run(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr.Ops == 0 || wr.FailedOps != 0 {
			t.Errorf("%s: ops=%d failed_ops=%d problems=%v", name, wr.Ops, wr.FailedOps, wr.Problems)
		}
		e2e := make(map[string]metric)
		for k, s := range wr.EndToEnd {
			e2e[k] = metric{s.Median, s.Unit}
		}
		checkMetrics(t, name+" end-to-end", spec.EndToEnd, e2e)
		checkMetrics(t, name+" per-layer", spec.PerLayer, wr.PerLayer)
		checkSpans(t, wr.SpanFile)
	}
	for _, v := range sweepVerbs {
		if n := res.Workloads["ds_fast"].PerLayer["sweep.http."+v+".n"].Value; n != 0 {
			t.Errorf("ds_fast saw %v %s requests; only sweep_dist enters the sweep layer", n, v)
		}
	}
	if n := res.Workloads["sweep_dist"].PerLayer["sweep.http.ckpt_put.n"].Value; n == 0 {
		t.Error("sweep_dist saw no checkpoint uploads")
	}

	// The orchestrator has already compared the fingerprints of each
	// workload's two runs (same seed); another seed must change them.
	other, err := runWorkload(context.Background(), runConfig{Workload: "ds_fast", Seed: 2, Seconds: 0.1, Quick: true, OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if other.SimFingerprint == res.Workloads["ds_fast"].SimFingerprint {
		t.Error("ds_fast: seeds 1 and 2 gave the same sim_fingerprint; the seed does not reach the inputs")
	}

	// Nothing but the results may be left behind.
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("temporary directories left behind: %v (%v)", left, err)
	}
}

// checkSpans parses a span file and resolves every parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	seen := make(map[uint64]bool)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		seen[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil || len(spans) == 0 {
		t.Errorf("%s: %d spans, %v", path, len(spans), err)
	}
	for _, s := range spans {
		if s.Parent != 0 && !seen[s.Parent] {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) was never closed", path, s.ID, s.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(xs ...float64) summary { return summarize("x", xs) }
	for _, tc := range []struct {
		name         string
		base, change summary
		better       string
		bound        float64
		want         string
	}{
		{"same", s(100, 101, 102), s(100, 101, 102), "higher", 0.05, "ok"},
		{"slower throughput", s(100, 101, 102), s(90, 91, 92), "higher", 0.05, "regressed"},
		{"faster throughput", s(100, 101, 102), s(110, 111, 112), "higher", 0.05, "ok"},
		{"more memory", s(100, 101, 102), s(120, 121, 122), "lower", 0.10, "regressed"},
		{"noisy and overlapping", s(80, 100, 120), s(82, 101, 119), "higher", 0.05, "unresolved"},
		{"noisy but every run better", s(80, 100, 120), s(130, 150, 170), "higher", 0.05, "ok"},
	} {
		if got, _ := verdict(tc.base, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
