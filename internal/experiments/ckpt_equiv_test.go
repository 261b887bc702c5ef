package experiments

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
)

// renderArtifacts renders every store-sensitive artifact — Table 2 and
// Figure 2 (Table 1 is the static configuration table) — into one byte
// stream for whole-output comparison.
func renderArtifacts(t *testing.T, r *Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Table2(r, &buf); err != nil {
		t.Fatal(err)
	}
	if err := Figure2(r, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointEquivalence is the heart of the cache-equivalence
// layer: every rendered cell must be byte-identical whether the
// checkpoint store is disabled, enabled-but-empty, or pre-warmed from
// a previous run's on-disk checkpoints. The warmed pass must actually
// serve hits, or the equivalence would be vacuous. No policy behind
// these artifacts leaves fast mode for a canonical burst, so the
// deposits come from an explicit stride grid (gzip's 350 intervals at
// this scale, one snapshot every 10).
func TestCheckpointEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("three full renders are slow")
	}
	opts := Options{Scale: 50_000, Benchmarks: []string{"gzip", "perlbmk"}, CkptStride: 10}

	off := opts
	off.CkptOff = true
	want := renderArtifacts(t, NewRunner(off))

	// One disk-backed store per runner over one directory: the cold
	// runner writes it, the warm one reads it back.
	dir := t.TempDir()
	disk := func() *ckpt.Store {
		st, err := ckpt.New(ckpt.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := opts
	cold.CkptStore = disk()
	rCold := NewRunner(cold)
	if got := renderArtifacts(t, rCold); !bytes.Equal(got, want) {
		t.Fatalf("cold-store render differs from store-off render:\n--- store ---\n%s\n--- off ---\n%s", got, want)
	}
	st, ok := rCold.CkptStats()
	if !ok {
		t.Fatal("runner has no store despite CkptStore")
	}
	if st.Puts == 0 || st.DiskWrites == 0 {
		t.Fatalf("cold run deposited nothing: %+v", st)
	}

	warm := opts
	warm.CkptStore = disk()
	rWarm := NewRunner(warm)
	if got := renderArtifacts(t, rWarm); !bytes.Equal(got, want) {
		t.Fatalf("warm-store render differs from store-off render:\n--- warm ---\n%s\n--- off ---\n%s", got, want)
	}
	wst, _ := rWarm.CkptStats()
	if wst.Hits == 0 {
		t.Fatalf("warm run never hit the persisted store (vacuous equivalence): %+v", wst)
	}
}
