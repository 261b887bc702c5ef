package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sampling"
)

// TestProgressWriterRace exercises concurrent progress writes into an
// unsynchronized bytes.Buffer. Before progress() serialized under
// progMu, this raced (caught by -race) and could interleave partial
// lines; now every emitted line must be whole.
func TestProgressWriterRace(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(Options{
		Scale:      50_000,
		Benchmarks: []string{"gzip", "mcf", "perlbmk", "swim"},
		Progress:   &buf,
	})
	policies := []sampling.Policy{
		sampling.FullTiming{},
		sampling.DefaultSMARTS(1000),
	}
	if _, err := r.RunAll(policies); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "done") {
		t.Fatalf("no progress lines emitted:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "done ") && !strings.HasPrefix(line, "retry ") &&
			!strings.HasPrefix(line, "FAILED ") && !strings.HasPrefix(line, "journal") {
			t.Fatalf("interleaved progress line %q in:\n%s", line, out)
		}
	}
}

// TestParallelismBound pins the attempt deadline's reach: with
// Parallelism 1 and a deadline every cell overruns, the timed-out
// attempts' sessions must stop (via the attempt context) rather than
// keep simulating while the runner moves on — so the number of
// concurrently-live measurements never exceeds Parallelism.
func TestParallelismBound(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRunner(Options{
		Scale:       5000, // big budget: a cell takes far longer than the deadline
		Benchmarks:  []string{"gzip", "mcf", "perlbmk"},
		Parallelism: 1,
		Timeout:     30 * time.Millisecond,
		Retries:     -1,
		Obs:         reg,
	})
	res, err := r.RunAll([]sampling.Policy{sampling.FullTiming{}})
	if err != nil {
		t.Fatal(err)
	}
	for b, m := range res {
		if len(m) != 0 {
			t.Fatalf("cell %s completed under a 30ms deadline: %v", b, m)
		}
	}
	if len(r.Failures()) == 0 {
		t.Fatal("expected every cell to fail on deadline")
	}
	if got := r.maxLive.Load(); got > 1 {
		t.Fatalf("concurrent live measurements peaked at %d, want <= Parallelism (1)", got)
	}
	if got := reg.Counter("experiments_cells_failed_total").Value(); got != 3 {
		t.Fatalf("failed cells counter = %d, want 3", got)
	}
}

// TestJournalMetricsSnapshot asserts Close appends a final metrics
// record when an obs registry is attached, and that the record does not
// break resume.
func TestJournalMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	reg := obs.NewRegistry()
	r := NewRunner(Options{
		Scale:      50_000,
		Benchmarks: []string{"gzip"},
		Journal:    path,
		Obs:        reg,
	})
	if _, err := r.Run("gzip", sampling.FullTiming{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"metrics"`) {
		t.Fatalf("journal lacks metrics snapshot:\n%s", data)
	}
	if !strings.Contains(string(data), `vm_instructions_total{mode=\"timing\"}`) {
		t.Fatalf("metrics snapshot lacks per-mode counters:\n%s", data)
	}

	// Resume: the metrics record is ignored, the result is replayed.
	r2 := NewRunner(Options{Scale: 50_000, Benchmarks: []string{"gzip"}, Journal: path})
	if _, err := r2.Run("gzip", sampling.FullTiming{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatalf("resumed run re-executed %d cells, want 0", r2.Executions())
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}
