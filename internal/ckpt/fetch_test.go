package ckpt

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vm"
)

// TestFetchKeepsNothing pins the serving side of a byte-keeping tier:
// Fetch and FetchNearest decode a disk entry, hand it on and leave the
// memory tier as it was, with every check and counter of Lookup and
// Nearest; an entry some Lookup did keep is served from memory; a
// corrupt file is dropped exactly as Lookup drops it.
func TestFetchKeepsNothing(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey(1000), testKey(2000)
	for _, k := range []Key{k1, k2} {
		if err := s.PutFrom(k, bytes.NewReader(encode(t, snapAt(t, k.Instr)))); err != nil {
			t.Fatal(err)
		}
	}
	if snap, ok := s.Fetch(k1); !ok || snap.Instructions() != 1000 {
		t.Fatal("Fetch missed a key on disk")
	}
	if snap, instr, ok := s.FetchNearest(testKey(5000)); !ok || instr != 2000 || snap.Instructions() != 2000 {
		t.Fatalf("FetchNearest = instr %d ok %v, want 2000", instr, ok)
	}
	if _, ok := s.Fetch(testKey(3000)); ok {
		t.Fatal("Fetch served a key nobody deposited")
	}
	st := s.Stats()
	if st.Hits != 1 || st.NearestHits != 1 || st.Misses != 1 || st.DiskLoads != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after two fetches and a miss: %+v", st)
	}

	if _, ok := s.Lookup(k1); !ok {
		t.Fatal("Lookup missed a key on disk")
	}
	if _, ok := s.Fetch(k1); !ok {
		t.Fatal("Fetch missed a key in memory")
	}
	if st := s.Stats(); st.DiskLoads != 3 || st.Entries != 1 {
		t.Fatalf("Lookup keeps its load and Fetch uses it: %+v", st)
	}

	path := filepath.Join(dir, k2.String()+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Fetch(k2); ok {
		t.Fatal("Fetch served a corrupt file")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the corrupt file is still there (%v)", err)
	}
	if st := s.Stats(); st.DiskErrors != 1 || st.DiskEntries != 1 || s.Contains(k2) {
		t.Fatalf("after a corrupt fetch: %+v", st)
	}
}

// byteRemote is a remote tier held in a map of serialized snapshots. It
// moves bytes as a Remote does and, told to, lies in each way the
// contract before accept let a store take on trust: "count" claims a
// nearest count one above the snapshot's, "snapshot" serves another
// key's bytes, "short" cuts the body in half, "late" claims a nearest
// count past the target.
type byteRemote struct {
	held map[Key][]byte
	lie  string
	open int // bodies handed out and not yet closed
}

type countedBody struct {
	io.Reader
	open *int
}

func (b countedBody) Close() error { *b.open--; return nil }

func (r *byteRemote) body(k Key) io.ReadCloser {
	data := r.held[k]
	switch r.lie {
	case "snapshot":
		for other, d := range r.held {
			if other != k {
				data = d
			}
		}
	case "short":
		data = data[:len(data)/2]
	}
	r.open++
	return countedBody{bytes.NewReader(data), &r.open}
}

func (r *byteRemote) Get(k Key) (io.ReadCloser, error) {
	if _, ok := r.held[k]; !ok {
		return nil, nil
	}
	return r.body(k), nil
}

func (r *byteRemote) Nearest(k Key) (io.ReadCloser, uint64, error) {
	best, found := k, false
	for rk := range r.held {
		if rk.series() == k.series() && rk.Instr <= k.Instr && (!found || rk.Instr > best.Instr) {
			best, found = rk, true
		}
	}
	if !found {
		return nil, 0, nil
	}
	switch r.lie {
	case "count":
		return r.body(best), best.Instr + 1, nil
	case "late":
		return r.body(best), k.Instr + 1, nil
	}
	return r.body(best), best.Instr, nil
}

func (r *byteRemote) Put(k Key, snap *vm.Snapshot) error {
	var buf bytes.Buffer
	_, err := snap.WriteTo(&buf)
	r.held[k] = buf.Bytes()
	return err
}

func newByteRemote(t *testing.T, instrs ...uint64) *byteRemote {
	r := &byteRemote{held: map[Key][]byte{}}
	for _, n := range instrs {
		r.held[testKey(n)] = encode(t, snapAt(t, n))
	}
	return r
}

// TestLyingRemoteIsRefused: a Remote moves bytes and is believed about
// nothing. Each lie is a miss counted in RemoteErrors, the third in a row
// switches the tier off (RemoteOff, and nothing asks it again), an honest
// answer in between resets the ladder, and every body handed to the
// store is closed.
func TestLyingRemoteIsRefused(t *testing.T) {
	t.Parallel()
	ask := map[string]func(s *Store) bool{
		"get": func(s *Store) bool { _, ok := s.Lookup(testKey(1000)); return ok },
		"nearest": func(s *Store) bool {
			_, instr, ok := s.Nearest(testKey(1500))
			return ok && instr == 1000
		},
	}
	for _, c := range []struct{ lie, verb string }{
		{"snapshot", "get"}, {"short", "get"},
		{"snapshot", "nearest"}, {"short", "nearest"}, {"count", "nearest"}, {"late", "nearest"},
	} {
		c := c
		t.Run(c.lie+"/"+c.verb, func(t *testing.T) {
			t.Parallel()
			remote := newByteRemote(t, 1000, 2000)
			s, err := New(Options{Remote: remote})
			if err != nil {
				t.Fatal(err)
			}
			for round := uint64(1); round <= 2; round++ {
				remote.lie = c.lie
				for i := 0; i < maxRemoteFails-1; i++ {
					if ask[c.verb](s) {
						t.Fatalf("the store served what a %q remote sent", c.lie)
					}
				}
				remote.lie = ""
				if !ask[c.verb](s) {
					t.Fatal("the store missed an honest answer")
				}
				if st := s.Stats(); st.RemoteErrors != round*(maxRemoteFails-1) || st.RemoteHits != round || st.RemoteOff {
					t.Fatalf("after round %d of %d lies and a hit: %+v", round, maxRemoteFails-1, st)
				}
			}
			remote.lie = c.lie
			for i := 0; i < maxRemoteFails+2; i++ {
				ask[c.verb](s)
			}
			st := s.Stats()
			if !st.RemoteOff || st.RemoteErrors != 3*maxRemoteFails-2 || st.Entries != 0 {
				t.Fatalf("after %d lies in a row: %+v", maxRemoteFails+2, st)
			}
			remote.lie = ""
			if ask[c.verb](s) {
				t.Fatal("a switched-off remote tier was asked again")
			}
			if remote.open != 0 {
				t.Fatalf("%d bodies were left open", remote.open)
			}
		})
	}
}

// TestRemoteHitsAreNotKept: what the remote tier serves is restored from
// and let go — a store's footprint is its own deposits, however much of
// another worker's trajectory it had to borrow. Asking again asks the
// remote tier again; a deposit of the same key is a new key locally.
func TestRemoteHitsAreNotKept(t *testing.T) {
	t.Parallel()
	remote := newByteRemote(t, 1000, 2000)
	s, err := New(Options{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if snap, ok := s.Lookup(testKey(1000)); !ok || snap.Instructions() != 1000 {
			t.Fatal("Lookup missed a key the remote tier holds")
		}
		if _, instr, ok := s.Nearest(testKey(5000)); !ok || instr != 2000 {
			t.Fatalf("Nearest = instr %d ok %v, want 2000", instr, ok)
		}
		st := s.Stats()
		if st.RemoteHits != 2*i || st.Hits != i || st.NearestHits != i || st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("after round %d: %+v", i, st)
		}
	}
	if s.Contains(testKey(1000)) {
		t.Fatal("a remote hit was indexed locally")
	}
	s.Put(testKey(1000), snapAt(t, 1000))
	if st := s.Stats(); st.Puts != 1 || st.DupPuts != 0 || st.Entries != 1 {
		t.Fatalf("after depositing a key the remote tier had served: %+v", st)
	}
}
