package sampling

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestStatisticalPolicyNames(t *testing.T) {
	t.Parallel()
	cases := map[string]Policy{
		"Strat-K6-n48-s17":   NewStratified(17),
		"Strat-K6-±1%@95-s3": NewStratified(3).WithTarget(0.01, 200),
		"RSS-m4-c12-s17":     NewRankedSet(17),
		"RSS-m4-±2.5%@95-s9": NewRankedSet(9).WithTarget(0.025, 64),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// runBoth runs a policy twice on fresh sessions and requires
// bit-identical results (seed determinism).
func runTwice(t *testing.T, p Policy, bench string, scale int) Result {
	t.Helper()
	a, err := p.Run(sessionFor(t, bench, scale))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(sessionFor(t, bench, scale))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s not deterministic:\n%+v\nvs\n%+v", p.Name(), a, b)
	}
	return a
}

func TestStratifiedEstimatesCPI(t *testing.T) {
	t.Parallel()
	full, err := FullTiming{}.Run(sessionFor(t, "gzip", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	res := runTwice(t, NewStratified(17), "gzip", 50_000)
	if res.CPIInterval == nil || !res.CPIInterval.Valid() {
		t.Fatalf("no valid interval: %+v", res.CPIInterval)
	}
	if res.Samples < 16 || res.Samples > 48 {
		t.Fatalf("samples = %d, want ~48", res.Samples)
	}
	if e := res.ErrorVs(full); e > 0.15 {
		t.Fatalf("IPC error vs full timing = %.1f%%", e*100)
	}
	if res.CPIInterval.Point <= 0 || math.Abs(1/res.CPIInterval.Point-res.EstIPC) > 1e-12 {
		t.Fatalf("EstIPC %v inconsistent with interval point %v", res.EstIPC, res.CPIInterval.Point)
	}
	if sp := res.Speedup(full); sp < 1.5 {
		t.Fatalf("speedup vs full timing = %.2fx; two-phase sampling should be much cheaper", sp)
	}
	if hw := res.CPIInterval.RelHalfWidth(); hw <= 0 || math.IsInf(hw, 0) {
		t.Fatalf("relative half-width = %v", hw)
	}
}

func TestRankedSetEstimatesCPI(t *testing.T) {
	t.Parallel()
	full, err := FullTiming{}.Run(sessionFor(t, "gzip", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	res := runTwice(t, NewRankedSet(17), "gzip", 50_000)
	if res.CPIInterval == nil || !res.CPIInterval.Valid() {
		t.Fatalf("no valid interval: %+v", res.CPIInterval)
	}
	if res.Samples < 16 || res.Samples > 48 {
		t.Fatalf("samples = %d, want ~48", res.Samples)
	}
	if e := res.ErrorVs(full); e > 0.15 {
		t.Fatalf("IPC error vs full timing = %.1f%%", e*100)
	}
	if sp := res.Speedup(full); sp < 1.5 {
		t.Fatalf("speedup vs full timing = %.2fx", sp)
	}
}

func TestStatisticalPoliciesSeedSensitivity(t *testing.T) {
	t.Parallel()
	// Different seeds select different intervals; the estimates should
	// (almost surely) differ in their low bits.
	a, err := NewStratified(1).Run(sessionFor(t, "gzip", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStratified(2).Run(sessionFor(t, "gzip", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if a.EstIPC == b.EstIPC && a.CPIInterval.HalfWidth() == b.CPIInterval.HalfWidth() {
		t.Fatal("different seeds produced identical estimates and widths")
	}
}

func TestStratifiedErrorTargeting(t *testing.T) {
	t.Parallel()
	// A loose target is reachable within budget.
	loose := NewStratified(17)
	loose.Samples = 16
	loose = loose.WithTarget(0.20, 200)
	res := runTwice(t, loose, "gzip", 50_000)
	if !res.TargetMet {
		t.Fatalf("±20%% target not met with budget 200 (interval %+v, %d samples)",
			res.CPIInterval, res.Samples)
	}
	if res.Samples > 200 {
		t.Fatalf("budget exceeded: %d samples", res.Samples)
	}

	// An impossible target stops at the budget instead of spinning.
	tight := NewStratified(17).WithTarget(1e-9, 64)
	res = runTwice(t, tight, "gzip", 50_000)
	if res.TargetMet {
		t.Fatal("±1e-7%% target cannot be met")
	}
	if res.Samples > 64 {
		t.Fatalf("budget exceeded: %d samples", res.Samples)
	}
}

func TestRankedSetErrorTargeting(t *testing.T) {
	t.Parallel()
	loose := NewRankedSet(17)
	loose.Cycles = 4
	loose = loose.WithTarget(0.20, 50)
	res := runTwice(t, loose, "gzip", 50_000)
	if !res.TargetMet {
		t.Fatalf("±20%% target not met (interval %+v, %d samples)", res.CPIInterval, res.Samples)
	}

	tight := NewRankedSet(17).WithTarget(1e-9, 16)
	res = runTwice(t, tight, "gzip", 50_000)
	if res.TargetMet {
		t.Fatal("impossible target cannot be met")
	}
	if res.Samples > 16*res.Samples { // cycles capped; samples = cycles*m
		t.Fatalf("runaway sampling: %d", res.Samples)
	}
	if len(res.Detections) != 0 {
		t.Fatal("ranked set must not report detections")
	}
}

func TestStatisticalPoliciesRejectTinyBudget(t *testing.T) {
	t.Parallel()
	// At this scale the budget is shorter than one base interval: no
	// full interval enters the frame and the design is impossible.
	if _, err := NewStratified(1).Run(sessionFor(t, "gzip", 100_000_000)); err == nil {
		t.Fatal("stratified must reject an empty frame")
	}
	if _, err := NewRankedSet(1).Run(sessionFor(t, "gzip", 100_000_000)); err == nil {
		t.Fatal("ranked set must reject an empty frame")
	}
}

func TestResultCPIIntervalJSONRoundTrip(t *testing.T) {
	t.Parallel()
	res := runTwice(t, NewStratified(5), "mcf", 50_000)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("JSON round-trip changed the result:\n%+v\nvs\n%+v", res, back)
	}
	// Policies without a design must keep the field absent entirely so
	// pre-existing journals stay byte-identical.
	fullBlob, err := json.Marshal(Result{Policy: "Full timing"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"CPIInterval", "TargetMet"} {
		if string(fullBlob) != "" && json.Valid(fullBlob) && containsField(fullBlob, field) {
			t.Fatalf("zero Result marshals %s: %s", field, fullBlob)
		}
	}
}

func containsField(blob []byte, field string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}
