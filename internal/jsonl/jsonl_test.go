package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// rec is the test log's record: the first line carries the run identity,
// later lines a value.
type rec struct {
	Run int `json:"run,omitempty"`
	V   int `json:"v,omitempty"`
}

// collect returns a Visit that accepts run's log and gathers the values.
func collect(run int, vals *[]int) Visit {
	return func(line []byte, first bool) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if first {
			if r.Run != run {
				return ErrForeign
			}
			return nil
		}
		*vals = append(*vals, r.V)
		return nil
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

const (
	hdr = `{"run":7}` + "\n"
	l1  = `{"v":1}` + "\n"
	l2  = `{"v":2}` + "\n"
	l3  = `{"v":3}` + "\n"
)

// TestReplayOpenAppend drives every file shape through both entry
// points: Read must report the valid prefix without touching the file,
// Open must agree with it, leave exactly that prefix on disk, and the
// next append must land directly behind it so a second replay sees old
// and new records.
func TestReplayOpenAppend(t *testing.T) {
	cases := []struct {
		name    string
		content *string // nil: no file
		good    string  // the prefix that must survive
		vals    []int
		stale   bool // Open rotates the file aside
	}{
		{name: "missing file"},
		{name: "empty file", content: ptr("")},
		{name: "torn first line", content: ptr(`{"run":`)},
		{name: "unterminated first line", content: ptr(`{"run":7}`)},
		{name: "header only", content: ptr(hdr), good: hdr},
		{name: "clean", content: ptr(hdr + l1 + l2), good: hdr + l1 + l2, vals: []int{1, 2}},
		{name: "torn tail", content: ptr(hdr + l1 + `{"v":`), good: hdr + l1, vals: []int{1}},
		{name: "garbage mid-file", content: ptr(hdr + l1 + "garbage\n" + l2), good: hdr + l1, vals: []int{1}},
		{name: "empty line mid-file", content: ptr(hdr + l1 + "\n" + l2), good: hdr + l1, vals: []int{1}},
		{name: "unterminated but parsable tail", content: ptr(hdr + l1 + `{"v":2}`), good: hdr + l1, vals: []int{1}},
		{name: "foreign first line", content: ptr(`{"run":8}` + "\n" + l1), stale: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "sub", "log.jsonl")
			if tc.content != nil {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(*tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			var vals []int
			good, err := Read(path, collect(7, &vals))
			if err != nil {
				t.Fatal(err)
			}
			if good != int64(len(tc.good)) || !reflect.DeepEqual(vals, tc.vals) {
				t.Fatalf("Read: good=%d vals=%v, want %d %v", good, vals, len(tc.good), tc.vals)
			}
			if tc.content != nil && mustRead(t, path) != *tc.content {
				t.Fatal("Read modified the file")
			}

			vals = nil
			l, fresh, err := Open(path, collect(7, &vals))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals, tc.vals) || fresh != (tc.good == "") {
				t.Fatalf("Open: vals=%v fresh=%v, want %v %v", vals, fresh, tc.vals, tc.good == "")
			}
			if got := mustRead(t, path); got != tc.good {
				t.Fatalf("Open left %q on disk, want %q", got, tc.good)
			}
			_, err = os.Stat(path + ".stale")
			if tc.stale != (err == nil) {
				t.Fatalf("rotated=%v, want %v", err == nil, tc.stale)
			}
			if tc.stale && mustRead(t, path+".stale") != *tc.content {
				t.Fatal("rotation changed the foreign file")
			}

			want := tc.good
			if fresh {
				if err := l.Append(rec{Run: 7}); err != nil {
					t.Fatal(err)
				}
				want += hdr
			}
			if err := l.Append(rec{V: 3}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want += l3
			if got := mustRead(t, path); got != want {
				t.Fatalf("after append: %q, want %q", got, want)
			}
			vals = nil
			if _, err := Read(path, collect(7, &vals)); err != nil {
				t.Fatal(err)
			}
			if wantVals := append(append([]int(nil), tc.vals...), 3); !reflect.DeepEqual(vals, wantVals) {
				t.Fatalf("second replay: %v, want %v", vals, wantVals)
			}
		})
	}
}

func ptr(s string) *string { return &s }

// TestRotationNeverOverwrites: each foreign file takes the first free
// backup name, .stale then .stale.1, .stale.2, and no earlier backup is
// touched.
func TestRotationNeverOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for run := 1; run <= 4; run++ {
		l, fresh, err := Open(path, collect(run, new([]int)))
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("run %d: foreign log not rotated", run)
		}
		if err := l.Append(rec{Run: run}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for file, run := range map[string]int{".stale": 1, ".stale.1": 2, ".stale.2": 3, "": 4} {
		if got, want := mustRead(t, path+file), fmt.Sprintf("{\"run\":%d}\n", run); got != want {
			t.Errorf("log%s holds %q, want %q", file, got, want)
		}
	}
}

// TestReadErrorIsNotATornTail: a line over the limit fails the replay
// with the scanner's error, and Open then neither truncates nor rotates
// — the good records behind the bad line are still on disk.
func TestReadErrorIsNotATornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := hdr + l1 + `{"v":2,"pad":"` + strings.Repeat("x", 64) + `"}` + "\n" + l3
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replay(path, 64, collect(7, new([]int))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("replay: err=%v, want bufio.ErrTooLong", err)
	}
	l, _, err := open(path, 64, collect(7, new([]int)))
	if l != nil || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("open: log=%v err=%v, want bufio.ErrTooLong", l, err)
	}
	if got := mustRead(t, path); got != content {
		t.Fatalf("failed open changed the file: %q", got)
	}
	// Under the real limit the same file is fine.
	var vals []int
	if _, err := Read(path, collect(7, &vals)); err != nil || !reflect.DeepEqual(vals, []int{1, 2, 3}) {
		t.Fatalf("Read: vals=%v err=%v", vals, err)
	}
}

// TestKillAndClose: appends after Kill or Close fail with errClosed and
// write nothing; Close after Kill, and a second Close, are no-ops.
func TestKillAndClose(t *testing.T) {
	for _, end := range []string{"kill", "close"} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l, _, err := Open(path, collect(7, new([]int)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec{Run: 7}); err != nil {
			t.Fatal(err)
		}
		if end == "kill" {
			l.Kill()
			l.Kill()
		} else if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec{V: 1}); !errors.Is(err, errClosed) {
			t.Fatalf("append after %s: err=%v, want errClosed", end, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after %s: %v", end, err)
		}
		if got := mustRead(t, path); got != hdr {
			t.Fatalf("after %s the file holds %q", end, got)
		}
	}
}

// TestHookAndConcurrentAppends: the hook fires exactly once per append
// with the running count, outside the log's lock, never for a failed
// append; and concurrent appenders leave whole lines only.
func TestHookAndConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := Open(path, collect(7, new([]int)))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{Run: 7}); err != nil { // before the hook: not reported
		t.Fatal(err)
	}
	// Single appender: nobody else can hold the lock, so a failed
	// TryLock means Append called the hook under it.
	l.SetHook(func(n uint64) {
		if n != 2 {
			t.Errorf("hook count = %d, want 2", n)
		}
		if !l.mu.TryLock() {
			t.Error("hook called with the log locked")
			return
		}
		l.mu.Unlock()
	})
	if err := l.Append(rec{V: 9}); err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		seen = make(map[uint64]int)
	)
	l.SetHook(func(n uint64) {
		mu.Lock()
		seen[n]++
		mu.Unlock()
	})
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := l.Append(rec{V: i}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Append(make(chan int)); err == nil { // unmarshalable: fails before the write
		t.Fatal("appending a channel succeeded")
	}
	l.Kill()
	if err := l.Append(rec{V: 1}); err == nil {
		t.Fatal("append after kill succeeded")
	}
	if len(seen) != writers*each {
		t.Fatalf("hook saw %d distinct counts, want %d", len(seen), writers*each)
	}
	for n := uint64(3); n <= writers*each+2; n++ {
		if seen[n] != 1 {
			t.Fatalf("hook fired %d times for append %d", seen[n], n)
		}
	}
	var vals []int
	good, err := Read(path, collect(7, &vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != writers*each+1 || good != int64(len(mustRead(t, path))) {
		t.Fatalf("replayed %d records over %d bytes: lines interleaved", len(vals), good)
	}
}

// TestWriteFile: the file appears whole under its name, replacing an
// older one, and a failed write leaves neither a temp file nor a
// changed target.
func TestWriteFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub")
	path := filepath.Join(dir, "log.jsonl")
	write := func(vals ...int) func(*json.Encoder) error {
		return func(enc *json.Encoder) error {
			for _, v := range vals {
				if err := enc.Encode(rec{V: v}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	onlyFile := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "log.jsonl" {
			t.Fatalf("directory holds %v, want only log.jsonl", entries)
		}
	}
	if err := WriteFile(path, write(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); got != l1+l2 {
		t.Fatalf("wrote %q", got)
	}
	onlyFile()

	boom := errors.New("boom")
	err := WriteFile(path, func(enc *json.Encoder) error {
		if err := enc.Encode(rec{V: 3}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if got := mustRead(t, path); got != l1+l2 {
		t.Fatalf("failed write changed the target: %q", got)
	}
	onlyFile()

	if err := WriteFile(path, write(3)); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); got != l3 {
		t.Fatalf("rewrote %q", got)
	}
	onlyFile()
}
