package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestRunnerHealsInjectedFaults is the runner-level slice of the
// fault-equivalence contract (the full multi-seed sweep lives in
// internal/check): one faulted runner must reproduce the fault-free
// artifact bytes with no recorded failures.
func TestRunnerHealsInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow; skipped in -short")
	}
	opts := Options{Scale: 50_000, Benchmarks: []string{"gzip"}}
	var golden bytes.Buffer
	if err := RenderArtifacts(NewRunner(opts), &golden); err != nil {
		t.Fatal(err)
	}

	opts.Faults = faults.New(7, faults.DefaultPlan())
	r := NewRunner(opts)
	var got bytes.Buffer
	if err := RenderArtifacts(r, &got); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if fs := r.Failures(); len(fs) > 0 {
		t.Fatalf("healable schedule left %d failures, first: %v", len(fs), fs[0])
	}
	if !bytes.Equal(got.Bytes(), golden.Bytes()) {
		t.Fatalf("faulted artifacts diverge from fault-free run [%s]", opts.Faults)
	}
}

// TestUnhealableFaultMarksCell: a fault schedule that outlasts the
// retry budget must produce a recorded CellFailure and an explicit
// FAILED marker in rendered artifacts — never a panic, a hang, or an
// aborted sweep.
func TestUnhealableFaultMarksCell(t *testing.T) {
	inj := faults.New(1, faults.Plan{RunFaultRate: 1, RunFaultAttempts: 100})
	r := NewRunner(Options{
		Scale:      100_000,
		Benchmarks: []string{"gzip"},
		Faults:     inj,
		Retries:    1, // 2 attempts, both faulted
		// Every attempt is faulted, so no real measurement ever needs
		// the deadline; keep injected hangs cheap.
		Timeout: 250 * time.Millisecond,
	})

	_, err := r.Baseline("gzip")
	var cf *CellFailure
	if !errors.As(err, &cf) {
		t.Fatalf("want *CellFailure, got %v", err)
	}
	if cf.Attempts != 2 {
		t.Fatalf("want 2 attempts, got %d", cf.Attempts)
	}
	if cf.Kind != FailPanic && cf.Kind != FailTimeout && cf.Kind != FailError {
		t.Fatalf("unexpected failure kind %q", cf.Kind)
	}

	// The failure is memoised: a second call must not re-execute.
	execs := r.Executions()
	_, err2 := r.Baseline("gzip")
	if !errors.As(err2, &cf) {
		t.Fatalf("second call: want *CellFailure, got %v", err2)
	}
	if r.Executions() != execs {
		t.Fatal("failed cell was re-executed on second call")
	}

	// RunAll continues past the failure, and rendering marks the hole.
	if _, err := r.RunAll(BaselinePolicies(r.Options().Scale)); err != nil {
		t.Fatalf("RunAll must swallow cell failures, got %v", err)
	}
	var tbl bytes.Buffer
	if err := Table2(r, &tbl); err != nil {
		t.Fatal(err)
	}
	var fig bytes.Buffer
	if err := Figure8(r, &fig); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"Table2": tbl.String(), "Figure8": fig.String()} {
		if !strings.Contains(out, "FAILED(") {
			t.Errorf("%s does not mark the failed cell:\n%s", name, out)
		}
	}
	if !strings.Contains(fig.String(), "WARNING:") {
		t.Errorf("Figure8 missing failure footer:\n%s", fig.String())
	}

	// The CSV export of the same cells marks them too — not the zero
	// Result's "0.0000,0" — and the two aggregate figures, which average
	// over whatever survived, say what they left out.
	var csv bytes.Buffer
	if err := Figure89CSV(r, &csv); err != nil {
		t.Fatal(err)
	}
	if out := csv.String(); !strings.Contains(out, "FAILED(") || strings.Contains(out, "0.0000,0") {
		t.Errorf("Figure89CSV hides the failed cells:\n%s", out)
	}
	for name, render := range map[string]func(*Runner, io.Writer) error{"Figure6": Figure6, "Figure7": Figure7} {
		var out bytes.Buffer
		if err := render(r, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "WARNING:") {
			t.Errorf("%s missing failure footer:\n%s", name, out.String())
		}
	}
}

// TestCancellationIsNotAFailure: a cancelled base context aborts the
// measurement with the cancellation error and records nothing — a
// resumed run must retry cells the user interrupted.
func TestCancellationIsNotAFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Scale: 100_000, Benchmarks: []string{"gzip"}, Context: ctx})
	_, err := r.Baseline("gzip")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fs := r.Failures(); len(fs) > 0 {
		t.Fatalf("cancellation was recorded as a failure: %v", fs[0])
	}
}

// TestFailureForCoversSimPointVariants: one SimPoint pipeline failure
// must answer for both of its rendered accounting variants.
func TestFailureForCoversSimPointVariants(t *testing.T) {
	r := NewRunner(Options{Scale: 100_000, Benchmarks: []string{"gzip"}})
	r.mu.Lock()
	r.failures["gzip\x00SimPoint*"] = &CellFailure{Bench: "gzip", Policy: "SimPoint*", Kind: FailPanic, Attempts: 3}
	r.mu.Unlock()
	for _, name := range []string{"SimPoint", "SimPoint+prof"} {
		if _, ok := r.FailureFor("gzip", name); !ok {
			t.Errorf("FailureFor(gzip, %s) = false, want true", name)
		}
	}
	if _, ok := r.FailureFor("gzip", "Full timing"); ok {
		t.Error("FailureFor reported a failure for an unaffected policy")
	}
}
