// Package jsonl is the single-writer, crash-safe JSON-lines append log
// under the run journal (internal/experiments) and the coordinator WAL
// (internal/sweep). It owns the file discipline once; the two callers
// supply only their record types.
//
// Every record is one '\n'-terminated JSON line written with a single
// write(2), so concurrent appends never interleave and a process kill
// loses nothing that Append acknowledged. There is no fsync per append:
// a host crash may additionally tear or drop the final line. Replay
// therefore accepts the longest prefix of whole, parsable lines and
// Open truncates the rest before the first new append. Two things make
// a line torn: the caller's Visit rejects it (it does not parse), or it
// is the final line and has no terminating '\n' — even when it parses,
// because the writer only emits whole lines and keeping it would glue
// the next append onto it.
//
// The first line identifies the run. When Visit answers ErrForeign for
// it, Open renames the file to the first free path.stale, path.stale.1,
// … (never overwriting an earlier backup) and starts an empty log.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrForeign is what a Visit returns for a first line that parses but
// names a different run (another scale or format version).
var ErrForeign = errors.New("jsonl: log belongs to a different run")

// errClosed is what Append returns after Kill or Close.
var errClosed = errors.New("jsonl: log closed")

// maxLine bounds one line; longer lines fail the replay with
// bufio.ErrTooLong. Traces make long journal lines.
const maxLine = 64 << 20

// Visit receives each whole line of a replay, in order; first marks the
// file's first line. A nil return accepts the line. ErrForeign on the
// first line disowns the file; any other error marks the line torn and
// ends the replay. A Visit must not keep line, and must leave its own
// state untouched by a line it rejects.
type Visit func(line []byte, first bool) error

// replay feeds the valid prefix of the file at path to visit and
// returns its length in bytes. A missing file is an empty log. A read
// error — including a line longer than limit — is returned, never
// mistaken for a torn tail: the caller must not truncate on it.
func replay(path string, limit int, visit Visit) (good int64, foreign bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, min(1<<20, limit)), limit)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF {
			return len(data), nil, nil // unterminated final line: torn
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		line := sc.Bytes()
		if err := visit(line, good == 0); err != nil {
			if good == 0 && errors.Is(err, ErrForeign) {
				return 0, true, nil
			}
			return good, false, nil
		}
		good += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		return 0, false, fmt.Errorf("jsonl: replaying %s: %w", path, err)
	}
	return good, false, nil
}

// Read replays the valid prefix of the log at path without opening it
// for appends and returns that prefix's length. A foreign file is left
// alone and replays nothing.
func Read(path string, visit Visit) (int64, error) {
	good, _, err := replay(path, maxLine, visit)
	return good, err
}

// Log is an open append log. Safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
	n      uint64       // records appended through this handle
	hook   func(uint64) // called outside mu after each append
}

// Open creates the directory of path, replays the file's valid prefix
// through visit, rotates a foreign file aside, truncates a torn tail
// and returns the log positioned for appends. fresh reports that the
// log holds no line yet, so the caller must write its identifying first
// line.
func Open(path string, visit Visit) (l *Log, fresh bool, err error) {
	return open(path, maxLine, visit)
}

func open(path string, limit int, visit Visit) (*Log, bool, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, false, err
	}
	good, foreign, err := replay(path, limit, visit)
	if err != nil {
		return nil, false, err
	}
	if foreign {
		// Valid log of another run: keep it for forensics.
		if err := os.Rename(path, staleName(path)); err != nil {
			return nil, false, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, err
	}
	// Drop the torn tail before appending: an append after a partial
	// final line would corrupt the first new record too.
	if err := f.Truncate(good); err == nil {
		_, err = f.Seek(good, 0)
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return &Log{f: f}, good == 0, nil
}

// staleName picks the first free backup name for a superseded log.
func staleName(path string) string {
	name := path + ".stale"
	for n := 1; ; n++ {
		if _, err := os.Lstat(name); os.IsNotExist(err) {
			return name
		}
		name = fmt.Sprintf("%s.stale.%d", path, n)
	}
}

// Append writes v as one line with a single Write, then reports the
// handle's append count to the hook. A non-nil error means the record
// is not in the log; the log itself stays usable.
func (l *Log) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if _, err := l.f.Write(data); err != nil {
		l.mu.Unlock()
		return err
	}
	l.n++
	n, hook := l.n, l.hook
	l.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return nil
}

// SetHook installs a callback run after every successful Append,
// outside the log's lock, with the number of records appended through
// this handle.
func (l *Log) SetHook(fn func(n uint64)) {
	l.mu.Lock()
	l.hook = fn
	l.mu.Unlock()
}

// Kill models SIGKILL: the file closes without a sync and every later
// Append fails, so a successor may reopen the path and the two never
// interleave writes.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.f.Close()
	}
}

// Close syncs and closes the log at clean shutdown; later Appends
// fail. Closing a killed or closed log is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// WriteFile atomically replaces path with the lines write encodes (one
// per Encode call): temp file in the same directory, fsync, rename, so
// a crash never leaves a half-written log under the live name.
func WriteFile(path string, write func(enc *json.Encoder) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".jsonl-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(json.NewEncoder(w))
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Tear shears up to n bytes off the tail of the log at path, never
// reaching past the start of the final line: earlier lines were
// acknowledged single writes, which a process kill cannot lose. It is
// the chaos harness's model of the ack-before-fsync window of a host
// crash, where at most the last record is torn or dropped.
func Tear(path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	return os.Truncate(path, int64(max(len(data)-n, lastLine)))
}
