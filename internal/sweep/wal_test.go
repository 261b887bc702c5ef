package sweep

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonl"
)

// replayWAL folds the WAL at path read-only, the way openWAL replays it,
// and returns the state plus the length of the valid prefix.
func replayWAL(path string, scale int) (walState, int64, error) {
	st := walState{deliveries: make(map[Cell]int)}
	good, err := jsonl.Read(path, st.fold(scale))
	return st, good, err
}

// walCoord opens a WAL-backed coordinator for the standard test config
// against path.
func walCoord(t *testing.T, path string) *Coordinator {
	t.Helper()
	c, err := NewWALCoordinator(testConfig(), path, nil, nil)
	if err != nil {
		t.Fatalf("NewWALCoordinator: %v", err)
	}
	return c
}

// completeNext claims the next cell and completes it with its full
// record set, returning the cell.
func completeNext(t *testing.T, c *Coordinator, now time.Time) Cell {
	t.Helper()
	lease, done := c.Claim("w", now)
	if done || lease == nil {
		t.Fatalf("claim: lease=%v done=%v", lease, done)
	}
	if err := c.Complete(lease.ID, recordsFor(lease.Cell), now); err != nil {
		t.Fatalf("complete %s: %v", lease.Cell, err)
	}
	return lease.Cell
}

// TestWALRestartRestoresState pins the crash-safe contract end to end
// at the state-machine level: complete some cells, SIGKILL the
// coordinator (WAL closed unsynced), restart against the same path,
// and the successor must restore the completions, bump the epoch,
// continue delivery numbering, and reject the dead incarnation's
// epoch.
func TestWALRestartRestoresState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	if c1.Epoch() != 1 {
		t.Fatalf("fresh WAL epoch = %d, want 1", c1.Epoch())
	}
	cells := c1.cfg.Cells()
	done1 := []Cell{completeNext(t, c1, now), completeNext(t, c1, now)}
	// A lease left live at the kill: its cell must come back pending.
	liveLease, _ := c1.Claim("w", now)
	if liveLease == nil {
		t.Fatal("no live lease")
	}
	c1.Kill()

	// Post-kill mutations must not be acknowledged.
	if _, killedDone := c1.Claim("w", now); killedDone {
		t.Fatal("claim after kill reported done")
	}
	if err := c1.Complete(liveLease.ID, recordsFor(liveLease.Cell), now); !errors.Is(err, ErrWAL) {
		t.Fatalf("complete after kill: err=%v, want ErrWAL", err)
	}

	c2 := walCoord(t, path)
	st := c2.Stats()
	if c2.Epoch() != 2 || st.Epoch != 2 {
		t.Fatalf("restarted epoch = %d/%d, want 2", c2.Epoch(), st.Epoch)
	}
	if st.Restored != len(done1) || st.Done != len(done1) {
		t.Fatalf("restored %d done %d, want %d", st.Restored, st.Done, len(done1))
	}
	if err := c2.CheckEpoch(1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("CheckEpoch(1) = %v, want ErrStaleEpoch", err)
	}
	if err := c2.CheckEpoch(0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("CheckEpoch(0) unstamped = %v, want ErrStaleEpoch", err)
	}
	// The dead incarnation's live lease is orphaned, not restored.
	if err := c2.Heartbeat(liveLease.ID, now); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("heartbeat of orphaned lease = %v, want ErrStaleLease", err)
	}

	// Delivery numbering and lease IDs continue past the first
	// incarnation's high-water marks.
	next, done := c2.Claim("w", now)
	if done || next == nil {
		t.Fatal("no claimable cell after restart")
	}
	if next.ID <= liveLease.ID {
		t.Fatalf("lease ID %d did not advance past pre-crash %d", next.ID, liveLease.ID)
	}
	if next.Cell == liveLease.Cell && next.Delivery != liveLease.Delivery+1 {
		t.Fatalf("delivery %d, want %d", next.Delivery, liveLease.Delivery+1)
	}

	// Finishing the sweep from the restored state touches only the
	// missing cells, and the merged journal covers the full matrix.
	if err := c2.Complete(next.ID, recordsFor(next.Cell), now); err != nil {
		t.Fatal(err)
	}
	for !c2.Done() {
		completeNext(t, c2, now)
	}
	if got := len(c2.Merged()); got == 0 {
		t.Fatal("merged journal empty")
	}
	fin := c2.Stats()
	if fin.Completions != uint64(len(cells)-len(done1)) {
		t.Fatalf("second incarnation acked %d completions, want %d",
			fin.Completions, len(cells)-len(done1))
	}
	if err := c2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALDoubleRestart pins that recovery composes: two kills, each
// restart accumulating the prior completions, and the final
// incarnation finishing the sweep exactly-once.
func TestWALDoubleRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	total := len(c1.cfg.Cells())
	completeNext(t, c1, now)
	c1.Kill()

	c2 := walCoord(t, path)
	if st := c2.Stats(); st.Restored != 1 {
		t.Fatalf("first restart restored %d, want 1", st.Restored)
	}
	completeNext(t, c2, now)
	completeNext(t, c2, now)
	c2.Kill()

	c3 := walCoord(t, path)
	if c3.Epoch() != 3 {
		t.Fatalf("epoch after two restarts = %d, want 3", c3.Epoch())
	}
	if st := c3.Stats(); st.Restored != 3 {
		t.Fatalf("second restart restored %d, want 3", st.Restored)
	}
	for !c3.Done() {
		completeNext(t, c3, now)
	}
	if st := c3.Stats(); st.Completions != uint64(total-3) {
		t.Fatalf("final incarnation acked %d, want %d", st.Completions, total-3)
	}
}

// TestWALRestartZeroCompleted pins the empty-progress restart: leases
// were granted but nothing completed, so the successor restores no
// cells yet still carries forward the epoch and delivery counts.
func TestWALRestartZeroCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	l1, _ := c1.Claim("w", now)
	if l1 == nil {
		t.Fatal("no lease")
	}
	c1.Kill()

	c2 := walCoord(t, path)
	st := c2.Stats()
	if st.Restored != 0 || st.Done != 0 {
		t.Fatalf("restored %d done %d, want 0", st.Restored, st.Done)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c2.Epoch())
	}
	l2, _ := c2.Claim("w", now)
	if l2 == nil {
		t.Fatal("no lease after restart")
	}
	if l2.Cell != l1.Cell || l2.Delivery != l1.Delivery+1 {
		t.Fatalf("lease after restart = %+v, want same cell at delivery %d", l2, l1.Delivery+1)
	}
}

// TestWALTruncatedAtEveryByteOffset mirrors the run journal's torn-tail
// test at the WAL layer: a coordinator crash (or a torn host write) may
// leave the file cut at ANY byte. Every prefix must replay without
// error into a valid state — completed cells a subset of the full run's
// — and reopen into a working coordinator that can finish the sweep.
func TestWALTruncatedAtEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	now := time.Unix(1000, 0)

	c := walCoord(t, path)
	total := len(c.cfg.Cells())
	for !c.Done() {
		completeNext(t, c, now)
	}
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 || full[len(full)-1] != '\n' {
		t.Fatalf("unexpected WAL shape: %d bytes", len(full))
	}

	cut := filepath.Join(dir, "cut.wal")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(cut, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		st, goodBytes, err := replayWAL(cut, testConfig().Scale)
		if err != nil {
			t.Fatalf("offset %d: replay error: %v", n, err)
		}
		if goodBytes < 0 {
			t.Fatalf("offset %d: rotate signal from a same-run prefix", n)
		}
		if goodBytes > int64(n) {
			t.Fatalf("offset %d: goodBytes %d past file end", n, goodBytes)
		}
		if len(st.completed) > total {
			t.Fatalf("offset %d: %d completed cells from a %d-cell run", n, len(st.completed), total)
		}
		// Reopen as a coordinator and drive the remaining cells home:
		// every torn prefix must resume, never wedge. Replay itself is
		// checked at every offset; the full reopen-and-finish drive runs
		// on a stride sample plus the interesting tail region, keeping
		// the test inside tier-1 time under -race.
		if n%97 != 0 && n < len(full)-200 {
			continue
		}
		c2, err := NewWALCoordinator(testConfig(), cut, nil, nil)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", n, err)
		}
		if got := c2.Stats().Restored; got != len(st.completed) {
			t.Fatalf("offset %d: restored %d, replay said %d", n, got, len(st.completed))
		}
		for !c2.Done() {
			completeNext(t, c2, now)
		}
		if err := c2.CloseWAL(); err != nil {
			t.Fatalf("offset %d: close: %v", n, err)
		}
	}
}

// TestWALRotatesForeignFile pins the rotate discipline: a WAL from a
// different run (scale mismatch) is moved aside, not replayed and not
// destroyed.
func TestWALRotatesForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	completeNext(t, c1, now)
	if err := c1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	other := testConfig()
	other.Scale = 4000
	c2, err := NewWALCoordinator(other, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Restored != 0 || st.Done != 0 {
		t.Fatalf("foreign WAL leaked state: %+v", st)
	}
	if c2.Epoch() != 1 {
		t.Fatalf("fresh epoch after rotate = %d, want 1", c2.Epoch())
	}
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Fatalf("rotated backup missing: %v", err)
	}
}

// TestWALGrantRevertedOnAppendFailure pins log-before-ack on the grant
// path: when the WAL append fails, Claim must not hand out the lease —
// and the state must be clean enough that a later (healthy) claim works.
func TestWALGrantRevertedOnAppendFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)
	c := walCoord(t, path)
	c.Kill()
	lease, done := c.Claim("w", now)
	if lease != nil || done {
		t.Fatalf("claim with dead WAL granted %+v done=%v", lease, done)
	}
	st := c.Stats()
	if st.Claims != 0 || st.Leased != 0 {
		t.Fatalf("reverted grant leaked into stats: %+v", st)
	}
	if st.WALErrors == 0 {
		t.Fatal("WAL failure not counted")
	}
	if !strings.Contains(ErrWAL.Error(), "wal") {
		t.Fatal("sanity")
	}
}

// walKinds reads the WAL at path and returns its entries' kinds in file
// order plus the raw lines.
func walKinds(t *testing.T, path string) (kinds []string, lines []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		var e walEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("WAL line %q: %v", line, err)
		}
		kinds = append(kinds, e.Kind)
		lines = append(lines, line)
	}
	return kinds, lines
}

// TestWALLogsARecordOnce: a record the coordinator already holds is in
// the WAL already, so a second delivery of its cell — here after the
// first holder shipped its records and died before completing — adds
// grant, expire and complete entries and no record entry. The file
// replays to the state the old double-logging WAL (every re-shipped
// record logged again) replays to.
func TestWALLogsARecordOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.wal")
	t0 := time.Unix(1000, 0)

	c := walCoord(t, path)
	first, _ := c.Claim("w", t0)
	recs := recordsFor(first.Cell)
	if err := c.Append(first.ID, recs, t0); err != nil {
		t.Fatal(err)
	}
	// Not a journal record: neither held nor logged.
	if err := c.Append(first.ID, []experiments.JournalRecord{{Kind: "metrics", Metrics: map[string]float64{"x": 1}}}, t0); err != nil {
		t.Fatal(err)
	}
	before, _ := walKinds(t, path)

	late := t0.Add(2 * testTTL)
	second, _ := c.Claim("w2", late)
	if second == nil || second.Cell != first.Cell || second.Delivery != 1 {
		t.Fatalf("second delivery = %+v, want %s again", second, first.Cell)
	}
	if err := c.Complete(second.ID, recs, late); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Records != uint64(len(recs)) || st.DupRecords != uint64(len(recs)) {
		t.Fatalf("Records = %d DupRecords = %d, want %d each", st.Records, st.DupRecords, len(recs))
	}
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	kinds, lines := walKinds(t, path)
	wantBefore := []string{"epoch", "grant"}
	for range recs {
		wantBefore = append(wantBefore, "record")
	}
	if !slices.Equal(before, wantBefore) {
		t.Fatalf("WAL after the first delivery = %v, want %v", before, wantBefore)
	}
	if gained := kinds[len(before):]; !slices.Equal(gained, []string{"expire", "grant", "complete"}) {
		t.Fatalf("second delivery logged %v, want expire, grant, complete and no record", gained)
	}

	// The same history as the double-logging coordinator wrote it.
	doubled := filepath.Join(dir, "doubled.wal")
	tail := len(lines) - 1 // the complete entry
	old := strings.Join(lines[:tail], "") + strings.Join(lines[2:2+len(recs)], "") + lines[tail]
	if err := os.WriteFile(doubled, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := replayWAL(path, testConfig().Scale)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := replayWAL(doubled, testConfig().Scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.records) != 2*len(recs) || len(got.records) != len(recs) {
		t.Fatalf("replayed %d records (doubled file: %d), want %d and %d", len(got.records), len(want.records), len(recs), 2*len(recs))
	}
	got.records, want.records = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state %+v, the double-logging WAL's %+v", got, want)
	}
	a, b := walCoord(t, path), walCoord(t, doubled)
	sa, sb := a.Stats(), b.Stats()
	if sb.DupRecords != uint64(len(recs)) || sa.DupRecords != 0 {
		t.Fatalf("restart counted %d duplicates (doubled file: %d), want 0 and %d", sa.DupRecords, sb.DupRecords, len(recs))
	}
	sb.DupRecords = 0
	if sa != sb || sa.Restored != 1 || !reflect.DeepEqual(a.Merged(), b.Merged()) {
		t.Fatalf("restarted coordinators differ:\n %+v\n %+v", sa, sb)
	}
}

// TestWALFromParentCommitResumes pins on-disk compatibility: the
// fixture was written by the pre-internal/jsonl WAL code across two
// killed incarnations (three completed cells, and one whose record
// arrived but whose lease then expired and was re-granted). It must fold to
// the same state and be extended with exactly the next epoch entry.
func TestWALFromParentCommitResumes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coord.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	st, good, err := replayWAL(path, testConfig().Scale)
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(fixture)) {
		t.Fatalf("valid prefix %d of %d bytes", good, len(fixture))
	}
	wantDone := []Cell{{"gzip", "Full timing"}, {"gzip", "SMARTS"}, {"gzip", "SimPoint*"}}
	if !reflect.DeepEqual(st.completed, wantDone) {
		t.Fatalf("completed = %v, want %v", st.completed, wantDone)
	}
	wantDeliveries := map[Cell]int{wantDone[0]: 1, wantDone[1]: 1, wantDone[2]: 2, {"gzip", "CPU-300-1M-∞"}: 2}
	if st.epoch != 2 || st.nextID != 6 || len(st.records) != 6 || !reflect.DeepEqual(st.deliveries, wantDeliveries) {
		t.Fatalf("folded state = epoch %d nextID %d records %d deliveries %v",
			st.epoch, st.nextID, len(st.records), st.deliveries)
	}

	c := walCoord(t, path)
	// The fourth cell's record set survived without its completion
	// entry: done, but counted as replayed rather than restored.
	if s := c.Stats(); c.Epoch() != 3 || s.Restored != 3 || s.Replayed != 1 || s.Done != 4 || s.Records != 6 {
		t.Fatalf("restarted coordinator: epoch %d stats %+v", c.Epoch(), s)
	}
	lease, _ := c.Claim("w", time.Unix(1000, 0))
	if lease == nil || lease.ID != 7 || lease.Cell != c.cells[4] || lease.Delivery != 0 {
		t.Fatalf("first lease after restart = %+v", lease)
	}
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(fixture) +
		`{"kind":"epoch","version":1,"scale":2000,"epoch":3}` + "\n" +
		`{"kind":"grant","epoch":3,"lease":7,"cell":{"bench":"gzip","policy":"Strat-K6-n48-s17"}}` + "\n"
	if string(got) != want {
		t.Fatalf("resumed WAL diverges from the parent format:\n%s", got[len(fixture):])
	}
}
