package ckpt

import (
	"bytes"
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

// mapRemote is a remote tier held in a map.
type mapRemote map[Key]*vm.Snapshot

func (r mapRemote) Get(k Key) (*vm.Snapshot, error) { return r[k], nil }

func (r mapRemote) Nearest(k Key) (*vm.Snapshot, uint64, error) {
	var best *vm.Snapshot
	for rk, snap := range r {
		if rk.series() == k.series() && rk.Instr <= k.Instr && (best == nil || rk.Instr > best.Instructions()) {
			best = snap
		}
	}
	if best == nil {
		return nil, 0, nil
	}
	return best, best.Instructions(), nil
}

func (r mapRemote) Put(k Key, snap *vm.Snapshot) error {
	r[k] = snap
	return nil
}

// TestRemoteHitsAreNotKept: what the remote tier serves is restored from
// and let go — a store's footprint is its own deposits, however much of
// another worker's trajectory it had to borrow. Asking again asks the
// remote tier again; a deposit of the same key is a new key locally.
func TestRemoteHitsAreNotKept(t *testing.T) {
	t.Parallel()
	remote := mapRemote{testKey(1000): snapAt(t, 1000), testKey(2000): snapAt(t, 2000)}
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
