package ckpt

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// testMachine builds a small deterministic guest: a store loop touching
// a few pages, enough state for meaningful snapshots.
func testMachine(t *testing.T) *vm.Machine {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 2000)
	b.Movi(5, 0x40000)
	b.Label("loop")
	b.St(1, 5, 0)
	b.I(isa.OpAddi, 5, 5, 512)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := vm.New(vm.Config{MemSpan: 16 << 20})
	m.Load(img)
	return m
}

// snapAt returns a snapshot of the test guest at instruction count n.
func snapAt(t *testing.T, n uint64) *vm.Snapshot {
	t.Helper()
	m := testMachine(t)
	if ex := m.Run(n, nil); ex != n {
		t.Fatalf("guest halted after %d of %d instructions", ex, n)
	}
	return m.Snapshot()
}

func testKey(instr uint64) Key {
	return Key{Workload: "gzip", Hash: 0xabcdef0123456789, Scale: 2000, Instr: instr}
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	t.Parallel()
	s := NewMemory()
	k := testKey(1000)
	if s.Contains(k) {
		t.Fatal("empty store claims key")
	}
	if _, ok := s.Lookup(k); ok {
		t.Fatal("empty store served a snapshot")
	}
	snap := snapAt(t, 1000)
	s.Put(k, snap)
	if !s.Contains(k) {
		t.Fatal("store lost the deposit")
	}
	got, ok := s.Lookup(k)
	if !ok || got != snap {
		t.Fatal("lookup did not return the deposited snapshot")
	}
	// Duplicate deposits are dropped.
	s.Put(k, snapAt(t, 1000))
	if got, _ := s.Lookup(k); got != snap {
		t.Fatal("duplicate put replaced the entry")
	}
	st := s.Stats()
	if st.Puts != 1 || st.DupPuts != 1 || st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestStoreNearest(t *testing.T) {
	t.Parallel()
	s := NewMemory()
	for _, n := range []uint64{1000, 3000, 5000} {
		s.Put(testKey(n), snapAt(t, n))
	}
	// A different series must be invisible.
	other := Key{Workload: "mcf", Hash: 1, Scale: 2000, Instr: 4000}
	s.Put(other, snapAt(t, 4000))

	cases := []struct {
		target uint64
		want   uint64
		ok     bool
	}{
		{500, 0, false},
		{1000, 1000, true},
		{2999, 1000, true},
		{3000, 3000, true},
		{9999, 5000, true},
	}
	for _, c := range cases {
		snap, instr, ok := s.Nearest(testKey(c.target))
		if ok != c.ok || (ok && instr != c.want) {
			t.Errorf("Nearest(%d) = %d,%v want %d,%v", c.target, instr, ok, c.want, c.ok)
		}
		if ok && snap.Instructions() != c.want {
			t.Errorf("Nearest(%d) snapshot at instr %d", c.target, snap.Instructions())
		}
	}
}

// TestFetchKeepsNothing pins Nearest over the disk tier: a cold store
// serves the best entry on disk, misses below every deposit, and when
// the best candidate is corrupt it keeps nothing of it — the entry is
// dropped exactly as Lookup drops it, file and all, and the entry below
// it is served.
func TestFetchKeepsNothing(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1000, 2000} {
		d.Put(testKey(n), snapAt(t, n))
	}
	d, err = New(Options{Dir: dir}) // a store over the same Dir, memory cold
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Nearest(testKey(500)); ok {
		t.Fatal("Nearest served a count below every deposit")
	}
	path := filepath.Join(dir, testKey(2000).String()+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, instr, ok := d.Nearest(testKey(2500)); !ok || instr != 1000 || snap.Instructions() != 1000 {
		t.Fatalf("Nearest over a corrupt file = instr %d ok %v, want the entry below it, 1000", instr, ok)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the corrupt file is still there (%v)", err)
	}
	if st := d.Stats(); st.DiskErrors != 1 || st.DiskEntries != 1 || st.NearestHits != 1 || st.NearestMisses != 1 || d.Contains(testKey(2000)) {
		t.Fatalf("after a nearest over a corrupt file: %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	t.Parallel()
	// Three equal-size snapshots in distinct series, under a two-entry
	// byte budget: the third deposit must evict the least recently used.
	one := snapAt(t, 500)
	key := func(hash uint64) Key {
		return Key{Workload: "gzip", Hash: hash, Scale: 2000, Instr: 500}
	}
	s, err := New(Options{MaxBytes: 2 * one.SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), one)
	s.Put(key(2), snapAt(t, 500))
	s.Put(key(3), snapAt(t, 500))
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("expected one eviction under a 2-entry budget: %+v", st)
	}
	if st.Bytes > 2*one.SizeBytes() {
		t.Fatalf("budget exceeded: %d > %d", st.Bytes, 2*one.SizeBytes())
	}
	if s.Contains(key(1)) {
		t.Fatal("least recently used entry survived")
	}
	if !s.Contains(key(2)) || !s.Contains(key(3)) {
		t.Fatal("recent entries were evicted")
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(2000)
	s.Put(k, snapAt(t, 2000))
	if s.Stats().DiskWrites != 1 {
		t.Fatalf("expected one disk write: %+v", s.Stats())
	}

	// A fresh store over the same directory serves the key from disk,
	// and the loaded snapshot resumes bit-identically.
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(k) {
		t.Fatal("reopened store does not index the file")
	}
	snap, ok := s2.Lookup(k)
	if !ok {
		t.Fatal("reopened store misses the key")
	}
	if st := s2.Stats(); st.DiskLoads != 1 {
		t.Fatalf("expected one disk load: %+v", st)
	}

	// The reference uses the same partitioning (stop at 2000, then run to
	// completion): a mid-block stop boundary costs one retranslation, so
	// only an identically-partitioned run is comparable — the discipline
	// core.Session's canonical-interval bookkeeping enforces.
	ref := testMachine(t)
	ref.Run(2000, nil)
	ref.RunToCompletion(0, nil)
	m := testMachine(t)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	m.RunToCompletion(0, nil)
	if m.Stats() != ref.Stats() {
		t.Fatalf("resume from disk-loaded snapshot diverged:\n got %+v\nwant %+v",
			m.Stats(), ref.Stats())
	}
}

// TestStoreDiskFaultInjection corrupts persisted checkpoints three ways
// — truncation, a flipped payload byte, a stale version header — and
// requires every case to degrade to a miss (cold execution) with the
// error counted, never a panic or a corrupt restore.
func TestStoreDiskFaultInjection(t *testing.T) {
	t.Parallel()
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale-version", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = 0x7f // version field of the snapshot header
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			good := testKey(1000)
			bad := testKey(3000)
			s.Put(good, snapAt(t, 1000))
			s.Put(bad, snapAt(t, 3000))
			c.corrupt(t, filepath.Join(dir, bad.String()+".ckpt"))

			// Reopen so nothing is cached in memory.
			s2, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Lookup(bad); ok {
				t.Fatal("corrupt checkpoint was served")
			}
			st := s2.Stats()
			if st.DiskErrors == 0 {
				t.Fatalf("corruption not counted: %+v", st)
			}
			if st.Misses != 1 {
				t.Fatalf("corrupt lookup must degrade to a miss: %+v", st)
			}
			// Nearest must skip the corrupt candidate and fall back to
			// the next-lower good checkpoint.
			snap, instr, ok := s2.Nearest(testKey(4000))
			if !ok || instr != 1000 || snap.Instructions() != 1000 {
				t.Fatalf("Nearest did not fall back past the corrupt entry: instr=%d ok=%v", instr, ok)
			}
		})
	}
}

// TestStoreMismatchedInstrRejected covers a renamed/mixed-up file: the
// payload is intact (digest passes) but holds the wrong checkpoint.
func TestStoreMismatchedInstrRejected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1000)
	s.Put(k, snapAt(t, 1000))
	wrong := testKey(2000)
	if err := os.Rename(filepath.Join(dir, k.String()+".ckpt"),
		filepath.Join(dir, wrong.String()+".ckpt")); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup(wrong); ok {
		t.Fatal("store served a snapshot whose instruction count contradicts its key")
	}
	if s2.Stats().DiskErrors == 0 {
		t.Fatal("mismatch not counted as a disk error")
	}
}

// TestStoreConcurrent is the race-detector smoke test: concurrent
// deposits and lookups over overlapping keys.
func TestStoreConcurrent(t *testing.T) {
	t.Parallel()
	s, err := New(Options{Dir: t.TempDir(), MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*vm.Snapshot, 8)
	for i := range snaps {
		snaps[i] = snapAt(t, uint64(500*(i+1)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, snap := range snaps {
				k := testKey(uint64(500 * (i + 1)))
				s.Put(k, snap)
				s.Lookup(k)
				s.Nearest(testKey(uint64(500*(i+1) + g)))
				s.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts+st.DupPuts != 64 {
		t.Fatalf("lost deposits: %+v", st)
	}
}
