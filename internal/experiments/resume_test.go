package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func resumeTestOptions(journal string) Options {
	return Options{Scale: 50_000, Benchmarks: []string{"gzip", "perlbmk"}, Journal: journal}
}

func renderAll(t *testing.T, opts Options) ([]byte, int) {
	t.Helper()
	r := NewRunner(opts)
	defer r.Close()
	var buf bytes.Buffer
	if err := RenderArtifacts(r, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r.Executions()
}

// TestJournalResumeTornAtArbitraryOffsets is the crash-safety pin: a
// run journal truncated at any byte offset — mid-record, mid-header,
// or between the SimPoint analysis and its results — must resume to
// byte-identical artifacts. Offsets that preserve at least one
// complete record must also re-execute strictly less than a cold run.
func TestJournalResumeTornAtArbitraryOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep is slow; skipped in -short")
	}
	dir := t.TempDir()
	cold := filepath.Join(dir, "cold.jsonl")
	golden, coldExecs := renderAll(t, resumeTestOptions(cold))
	if coldExecs == 0 {
		t.Fatal("cold run executed nothing")
	}
	data, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(data, '\n') + 1
	if headerEnd <= 0 || headerEnd >= len(data) {
		t.Fatalf("journal has no records beyond the header (%d bytes)", len(data))
	}

	// Torn-header and torn-first-record files are internal/jsonl's
	// cases (TestReplayOpenAppend); here the offsets are the ones where
	// the journal's own header and record rules decide what re-executes.
	offsets := []int{
		0,                           // vanished journal: full cold re-run
		headerEnd,                   // header only
		(headerEnd + len(data)) / 2, // torn mid-file
		len(data) - 1,               // final newline lost: last record torn
		len(data),                   // clean shutdown: nothing to re-execute
	}
	for _, off := range offsets {
		path := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got, execs := renderAll(t, resumeTestOptions(path))
		if !bytes.Equal(got, golden) {
			t.Fatalf("offset %d/%d: resumed artifacts diverge from cold run", off, len(data))
		}
		// A prefix holding the header plus >=1 complete record must
		// spare the resumed run at least one execution.
		complete := bytes.Count(data[:off], []byte("\n"))
		if complete >= 2 && execs >= coldExecs {
			t.Errorf("offset %d/%d: resumed run executed %d, want < %d", off, len(data), execs, coldExecs)
		}
		if execs > coldExecs {
			t.Errorf("offset %d/%d: resumed run executed %d, more than cold run's %d", off, len(data), execs, coldExecs)
		}
		if off == len(data) && execs != 0 {
			t.Errorf("full journal: resumed run executed %d, want 0", execs)
		}
	}
}

// cancelAfterFirstDone cancels a context as soon as the runner reports
// its first completed measurement, simulating a SIGINT mid-sweep with
// at least one record already journaled.
type cancelAfterFirstDone struct {
	cancel context.CancelFunc
	mu     sync.Mutex
}

func (c *cancelAfterFirstDone) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes.HasPrefix(p, []byte("done")) {
		c.cancel()
	}
	return len(p), nil
}

// TestRunAllKilledMidFlightResumes kills a sweep via context
// cancellation after its first completed cell, then resumes from the
// journal: artifacts must be byte-identical to an uninterrupted run and
// the resumed run must execute strictly less.
func TestRunAllKilledMidFlightResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep is slow; skipped in -short")
	}
	dir := t.TempDir()
	golden, coldExecs := renderAll(t, resumeTestOptions(filepath.Join(dir, "cold.jsonl")))

	journal := filepath.Join(dir, "killed.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := resumeTestOptions(journal)
	opts.Context = ctx
	opts.Progress = &cancelAfterFirstDone{cancel: cancel}
	r := NewRunner(opts)
	_, err := r.RunAll(fig89Policies(opts.Scale))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted RunAll: want context.Canceled, got %v", err)
	}
	if fs := r.Failures(); len(fs) > 0 {
		t.Fatalf("cancellation recorded %d cell failures, first: %v", len(fs), fs[0])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	got, execs := renderAll(t, resumeTestOptions(journal))
	if !bytes.Equal(got, golden) {
		t.Fatal("resumed artifacts diverge from uninterrupted run")
	}
	if execs >= coldExecs {
		t.Fatalf("resumed run executed %d, want < %d", execs, coldExecs)
	}
}

// TestStatPolicyKeysJournalRoundTrip is the property pin for the
// statistical policies' journal contract: for arbitrary seeds, a
// Stratified or RankedSet result written to the JSONL journal under its
// policy key replays bit-identically — same key, same JSON bytes — so a
// resumed run can serve the replayed record as the result. Seeds are
// drawn by testing/quick from a fixed source; every draw is itself a
// fully deterministic design.
func TestStatPolicyKeysJournalRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seeded statistical designs")
	}
	const scale = 50_000
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	iter := 0
	prop := func(seed uint64) bool {
		iter++
		for _, p := range []sampling.Policy{sampling.NewStratified(seed), sampling.NewRankedSet(seed)} {
			res, err := p.Run(core.NewSession(spec, core.Options{Scale: scale}))
			if err != nil {
				t.Errorf("seed %d: %s: %v", seed, p.Name(), err)
				return false
			}
			if res.CPIInterval == nil {
				t.Errorf("seed %d: %s reported no interval", seed, p.Name())
				return false
			}
			rec := JournalRecord{Kind: "result", Bench: spec.Name, Policy: p.Name(), Result: &res}
			path := filepath.Join(dir, fmt.Sprintf("prop-%d.jsonl", iter))
			if err := WriteJournalFile(path, scale, []JournalRecord{rec}); err != nil {
				t.Errorf("seed %d: %s: write journal: %v", seed, p.Name(), err)
				return false
			}
			back, err := ReadJournal(path, scale)
			if err != nil || len(back) != 1 {
				t.Errorf("seed %d: %s: replay got %d records, err %v", seed, p.Name(), len(back), err)
				return false
			}
			if back[0].Policy != p.Name() || back[0].Bench != spec.Name {
				t.Errorf("seed %d: key %q/%q replayed as %q/%q",
					seed, spec.Name, p.Name(), back[0].Bench, back[0].Policy)
				return false
			}
			want, err := json.Marshal(rec)
			if err != nil {
				t.Errorf("seed %d: %s: marshal: %v", seed, p.Name(), err)
				return false
			}
			got, err := json.Marshal(back[0])
			if err != nil {
				t.Errorf("seed %d: %s: re-marshal: %v", seed, p.Name(), err)
				return false
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d: %s: journal round-trip changed the record's bytes", seed, p.Name())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStatPolicyResumeFromFilteredJournal pins resume behaviour for the
// statistical policy keys specifically. With only the Strat/RSS records
// journaled, a resume must replay exactly those cells and re-execute
// everything else; with everything but those records journaled, it must
// re-execute exactly those cells. Either way the rendered artifacts are
// byte-identical to the cold run — replayed statistical results are
// indistinguishable from freshly measured ones.
func TestStatPolicyResumeFromFilteredJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep is slow; skipped in -short")
	}
	dir := t.TempDir()
	cold := filepath.Join(dir, "cold.jsonl")
	opts := resumeTestOptions(cold)
	golden, coldExecs := renderAll(t, opts)
	records, err := ReadJournal(cold, opts.Scale)
	if err != nil {
		t.Fatal(err)
	}

	statName := make(map[string]bool)
	for _, p := range StatPolicies() {
		statName[p.Name()] = true
	}
	var statRecs, otherRecs []JournalRecord
	for _, rec := range records {
		if rec.Kind == "result" && statName[rec.Policy] {
			statRecs = append(statRecs, rec)
		} else {
			otherRecs = append(otherRecs, rec)
		}
	}
	// Both policies on every benchmark, one result record per execution.
	if want := len(statName) * len(opts.Benchmarks); len(statRecs) != want {
		t.Fatalf("journal holds %d statistical-policy records, want %d", len(statRecs), want)
	}

	for _, c := range []struct {
		name      string
		keep      []JournalRecord
		wantExecs int
	}{
		{"only-stat-journaled", statRecs, coldExecs - len(statRecs)},
		{"all-but-stat-journaled", otherRecs, len(statRecs)},
	} {
		path := filepath.Join(dir, c.name+".jsonl")
		if err := WriteJournalFile(path, opts.Scale, c.keep); err != nil {
			t.Fatal(err)
		}
		got, execs := renderAll(t, resumeTestOptions(path))
		if !bytes.Equal(got, golden) {
			t.Errorf("%s: resumed artifacts diverge from cold run", c.name)
		}
		if execs != c.wantExecs {
			t.Errorf("%s: resumed run executed %d, want %d", c.name, execs, c.wantExecs)
		}
	}
}

// TestCellRecordsMatchJournal pins Runner.CellRecords against the run
// journal: for every cell of the artifact matrix, the records it builds
// from the memo marshal to the journal's own lines for that cell, byte
// for byte and in journal order (SimPoint*: analysis, SimPoint,
// SimPoint+prof), and a key that never ran yields nothing. The sweep
// worker ships exactly these records to its coordinator.
func TestCellRecordsMatchJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the artifact matrix; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	opts := resumeTestOptions(path)
	r := NewRunner(opts)
	policies := ArtifactPolicies(opts.Scale)
	if _, err := r.RunAll(policies); err != nil {
		t.Fatal(err)
	}
	got := make(map[[2]string][]JournalRecord)
	for _, b := range opts.Benchmarks {
		for _, p := range policies {
			got[[2]string{b, PolicyKeyOf(p)}] = r.CellRecords(b, PolicyKeyOf(p))
		}
		if recs := r.CellRecords(b, "never-run"); recs != nil {
			t.Errorf("%s: a key that never ran yields %d records", b, len(recs))
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The oracle: the journal's lines after the header, grouped by the
	// cell that wrote them.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	want := make(map[[2]string][][]byte)
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		key := rec.Policy
		if rec.Kind == "analysis" || key == "SimPoint" || key == "SimPoint+prof" {
			key = "SimPoint*"
		}
		cell := [2]string{rec.Bench, key}
		want[cell] = append(want[cell], line)
	}
	if len(want) != len(got) {
		t.Fatalf("journal holds %d cells, the matrix has %d", len(want), len(got))
	}
	for cell, recs := range got {
		if len(recs) != len(want[cell]) {
			t.Errorf("%v: CellRecords returns %d records, the journal holds %d", cell, len(recs), len(want[cell]))
			continue
		}
		for i, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(line, '\n'), want[cell][i]) {
				t.Errorf("%v: record %d (%s %s) differs from the journal's line", cell, i, rec.Kind, rec.Policy)
			}
		}
	}
	if n := len(want[[2]string{"gzip", "SimPoint*"}]); n != 3 {
		t.Errorf("gzip SimPoint* journaled %d records, want analysis and both results", n)
	}
}

// TestJournalScaleMismatchRotates: a journal written at a different
// scale must not poison the run — it is rotated aside and the sweep
// starts cold.
func TestJournalScaleMismatchRotates(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep is slow; skipped in -short")
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	opts := resumeTestOptions(journal)
	opts.Benchmarks = []string{"gzip"}
	_, coldExecs := renderAll(t, opts)

	stale := opts
	stale.Scale = opts.Scale * 2
	_, execs := renderAll(t, stale)
	if execs == 0 {
		t.Fatal("scale-mismatched journal was replayed")
	}
	if coldExecs != execs {
		t.Fatalf("rotated journal: executed %d, want a full cold run of %d", execs, coldExecs)
	}
	if _, err := os.Stat(journal + ".stale"); err != nil {
		t.Fatalf("old journal was not rotated aside: %v", err)
	}
}

// TestJournalDoubleRotationKeepsBackups is the regression pin for the
// rotation scheme: every scale flip must rotate the superseded journal
// to a *fresh* numbered backup — the second rotation used to overwrite
// the first ".stale" silently, destroying the original run's records.
func TestJournalDoubleRotationKeepsBackups(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")

	// Three runs at three scales, each journaling one synthetic record
	// tagged with its scale so backups are tellable apart.
	writeRun := func(scale int) {
		j, _, err := openJournal(path, scale)
		if err != nil {
			t.Fatal(err)
		}
		rec := JournalRecord{Kind: "analysis", Bench: fmt.Sprintf("run-%d", scale)}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeRun(1000) // original journal
	writeRun(2000) // rotates the original to .stale
	writeRun(3000) // must rotate to .stale.1, NOT overwrite .stale

	// Each backup still holds its own run, and the live journal is the
	// newest one.
	assertRun := func(file string, scale int) {
		t.Helper()
		records, err := ReadJournal(file, scale)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		want := fmt.Sprintf("run-%d", scale)
		if len(records) != 1 || records[0].Bench != want {
			t.Fatalf("%s does not hold the %s journal: %+v", file, want, records)
		}
	}
	assertRun(path+".stale", 1000)
	assertRun(path+".stale.1", 2000)
	assertRun(path, 3000)

	// A further flip keeps climbing the numbering.
	writeRun(4000)
	assertRun(path+".stale.2", 3000)
	assertRun(path, 4000)
}

// TestJournalLostFinalNewlineResumes is the regression pin for the
// unterminated-tail rule: a journal that lost only its last '\n' used
// to be "truncated" one byte past its end — extended with a NUL that
// glued the next append onto the unterminated record, so every later
// resume stopped there and lost everything appended since.
func TestJournalLostFinalNewlineResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	const scale = 1000
	recs := make([]JournalRecord, 4)
	for i := range recs {
		recs[i] = JournalRecord{Kind: "analysis", Bench: fmt.Sprintf("b%d", i)}
	}
	if err := WriteJournalFile(path, scale, recs[:2]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j, replayed, err := openJournal(path, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) == 0 || len(replayed) > 2 {
		t.Fatalf("resume replayed %d records, want 1 or 2", len(replayed))
	}
	// The resumed run re-executes whatever did not replay, then goes on.
	for _, rec := range recs[len(replayed):] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, replayed, err = openJournal(path, scale)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	read, err := ReadJournal(path, scale)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]JournalRecord{"openJournal": replayed, "ReadJournal": read} {
		if len(got) != len(recs) {
			t.Fatalf("%s replayed %d of %d records", name, len(got), len(recs))
		}
		for i := range got {
			if got[i].Bench != recs[i].Bench {
				t.Fatalf("%s record %d = %q, want %q", name, i, got[i].Bench, recs[i].Bench)
			}
		}
	}
	if data, _ = os.ReadFile(path); bytes.IndexByte(data, 0) >= 0 {
		t.Fatalf("journal contains a NUL byte: %q", data)
	}
}

// TestJournalFromParentCommitResumes pins on-disk compatibility: the
// fixture was written by the pre-internal/jsonl journal code (a run,
// its metrics snapshot, then a resumed run). It must replay the same
// records, and a resumed append must extend it byte for byte the way
// the old code did — no header rewrite, no version bump.
func TestJournalFromParentCommitResumes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	const scale = 50_000
	want := []string{"analysis gzip ", "result gzip SimPoint", "result gzip Stratified", "result mcf Full timing"}
	check := func(name string, recs []JournalRecord) {
		t.Helper()
		var got []string
		for _, r := range recs {
			got = append(got, r.Kind+" "+r.Bench+" "+r.Policy)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s replayed %q, want %q", name, got, want)
		}
	}
	read, err := ReadJournal(path, scale)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadJournal", read)
	if read[1].Result.EstIPC != 1.0471975511965976 || read[2].Result.CPIInterval == nil {
		t.Fatalf("result payloads did not round-trip: %+v %+v", read[1].Result, read[2].Result)
	}

	j, replayed, err := openJournal(path, scale)
	if err != nil {
		t.Fatal(err)
	}
	check("openJournal", replayed)
	if err := j.Append(JournalRecord{Kind: "analysis", Bench: "swim"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(fixture) + `{"kind":"analysis","bench":"swim"}` + "\n"; string(got) != want {
		t.Fatalf("resumed journal diverges from the parent format:\n%s", got)
	}
	if _, err := os.Stat(path + ".stale"); err == nil {
		t.Fatal("parent-commit journal was rotated aside")
	}

	// Re-merging the replayed records reproduces the fixture minus its
	// non-resumable metrics line and minus the CIHalfWidthPct field,
	// which Result no longer has: WriteJournalFile bytes are otherwise
	// unchanged.
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	if err := WriteJournalFile(merged, scale, read); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	wantMerged := bytes.Join(append(append([][]byte(nil), lines[:4]...), lines[5:]...), nil)
	wantMerged = bytes.ReplaceAll(wantMerged, []byte(`"CIHalfWidthPct":0,`), nil)
	if got, _ := os.ReadFile(merged); !bytes.Equal(got, wantMerged) {
		t.Fatalf("WriteJournalFile bytes changed:\n%s", got)
	}
}
