package ckpt

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mix"
	"repro/internal/vm"
	"repro/internal/workload"
)

// trajectory is one suite benchmark executed interval by interval, the
// way a canonical session walks it: what a stride-1 store is fed.
type trajectory struct {
	m        *vm.Machine
	interval uint64
}

func newTrajectory(t testing.TB, bench string, scale int) *trajectory {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	total := spec.ScaledInstr(scale)
	interval := workload.DefaultIntervalLen(total)
	img, _ := workload.Build(spec, total, interval)
	m := vm.New(vm.Config{})
	m.Load(img)
	return &trajectory{m: m, interval: interval}
}

// smallTrajectory is the store-loop test guest captured every other
// instruction: images of a few dozen pages at most, a fresh page every
// 32 instructions and a store in every second interval, so neighbouring
// captures share their page table about half the time and their TLB
// contents and block list nearly always.
func smallTrajectory(t *testing.T) *trajectory {
	return &trajectory{m: testMachine(t), interval: 2}
}

// next runs one interval and captures; nil once the guest has halted.
func (tr *trajectory) next() *vm.Snapshot {
	if tr.m.Run(tr.interval, nil) == 0 || tr.m.Halted() {
		return nil
	}
	return tr.m.Snapshot()
}

// footer keeps the last eight bytes written through it: of a serialized
// snapshot, the FNV-1a digest of everything before them.
type footer [8]byte

func (f *footer) Write(p []byte) (int, error) {
	if len(p) >= len(f) {
		copy(f[:], p[len(p)-len(f):])
	} else {
		copy(f[:], append(f[len(p):], p...))
	}
	return len(p), nil
}

// digest is the digest footer of the snapshot's serialized form: the
// state witness of these tests, small enough to keep one per deposit.
func digest(s *vm.Snapshot) uint64 {
	var f footer
	if _, err := s.WriteTo(&f); err != nil {
		panic(err) // footer never fails a write
	}
	return binary.LittleEndian.Uint64(f[:])
}

// audit recomputes the store's byte count from nothing — every piece
// reachable from an in-memory entry, each identity once — and requires
// the incrementally kept count and reference map to agree with it.
func audit(t *testing.T, s *Store, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[any]bool)
	var want int64
	for el := s.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*entry).snap.Parts(func(id any, bytes int64) bool {
			if !seen[id] {
				seen[id] = true
				want += bytes
			}
			return true
		})
	}
	if s.bytes != want {
		t.Fatalf("%s: store accounts %d bytes, its entries hold %d", when, s.bytes, want)
	}
	if len(s.refs) != len(seen) {
		t.Fatalf("%s: %d counted identities, %d reachable", when, len(s.refs), len(seen))
	}
	for id, n := range s.refs {
		if n <= 0 || !seen[id] {
			t.Fatalf("%s: identity %p has count %d (reachable: %v)", when, id, n, seen[id])
		}
	}
}

// TestStoreBytesMatchHeap is the byte budget's truth test: a stride-1
// trajectory of a few thousand snapshots, deposited as core.Session
// deposits them, and Stats().Bytes against the heap the deposits really
// keep alive.
func TestStoreBytesMatchHeap(t *testing.T) {
	tr := newTrajectory(t, "mcf", 5000)
	s := NewMemory()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for snap := tr.next(); snap != nil; snap = tr.next() {
		s.Put(testKey(snap.Instructions()), snap)
		n++
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d snapshots: store accounts %.1f MB (%d B/entry), heap grew %.1f MB", n,
		float64(st.Bytes)/(1<<20), st.Bytes/int64(st.Entries), float64(heap)/(1<<20))
	if n < 2000 || st.Entries != n {
		t.Fatalf("trajectory too short or evicted: %d snapshots, %d entries", n, st.Entries)
	}
	if lo, hi := heap*85/100, heap*115/100; st.Bytes < lo || st.Bytes > hi {
		t.Fatalf("store accounts %d bytes, the heap grew by %d: off by more than 15%%", st.Bytes, heap)
	}
	audit(t, s, "primed")
	runtime.KeepAlive(tr)
}

// TestStoreBytesPerEntryBudget bounds what a fine-stride store charges
// per entry on the trajectory TestStoreBytesMatchHeap measures. Between
// consecutive captures a few TLB slots and one or two code pages
// change; when only those lines and page lists are new, an entry costs
// its own state plus a share of a line table and a code-page table,
// about 2.6 kB. Sharing TLB contents and block lists only as whole
// tables costs about 5.8 kB, so losing the finer sharing fails here.
func TestStoreBytesPerEntryBudget(t *testing.T) {
	const budget = 3000
	tr := newTrajectory(t, "mcf", 5000)
	s := NewMemory()
	for snap := tr.next(); snap != nil; snap = tr.next() {
		s.Put(testKey(snap.Instructions()), snap)
	}
	st := s.Stats()
	if st.Entries < 2000 {
		t.Fatalf("trajectory too short or evicted: %d entries", st.Entries)
	}
	if per := st.Bytes / int64(st.Entries); per > budget {
		t.Fatalf("store accounts %d B/entry over %d entries, budget %d", per, st.Entries, budget)
	}
}

// TestStoreSharedPartsAccounting walks a trajectory through a store far
// too small for it, so the LRU keeps evicting entries that share their
// page table, TLB contents and block list with the entries that stay.
// The count must equal a from-scratch recount all along, survivors must
// still restore to exactly what they captured, and discarding
// everything must return the store to zero.
func TestStoreSharedPartsAccounting(t *testing.T) {
	tr := smallTrajectory(t)
	first := tr.next()
	s, err := New(Options{MaxBytes: 400 << 10})
	if err != nil {
		t.Fatal(err)
	}
	type deposit struct {
		key Key
		sum uint64
	}
	var deposits []deposit
	for snap := first; snap != nil && len(deposits) < 600; snap = tr.next() {
		k := testKey(snap.Instructions())
		s.Put(k, snap)
		deposits = append(deposits, deposit{k, digest(snap)})
		if st := s.Stats(); st.Bytes < 0 || st.Bytes > s.opts.MaxBytes && st.Entries > 1 {
			t.Fatalf("after %d deposits: %d bytes under a budget of %d", len(deposits), st.Bytes, s.opts.MaxBytes)
		}
		if len(deposits)%50 == 0 {
			audit(t, s, fmt.Sprintf("after %d deposits", len(deposits)))
		}
	}
	st := s.Stats()
	t.Logf("%d deposits, %d evictions, %d survivors in %d of %d bytes", len(deposits), st.Evictions, st.Entries, st.Bytes, s.opts.MaxBytes)
	if st.Evictions == 0 || st.Entries < 2 {
		t.Fatalf("the budget did not force sharing entries apart: %+v", st)
	}
	survivors := 0
	for _, d := range deposits {
		s.mu.Lock()
		el, ok := s.mem[d.key]
		s.mu.Unlock()
		if !ok {
			continue
		}
		survivors++
		snap := el.Value.(*entry).snap
		if digest(snap) != d.sum {
			t.Fatalf("survivor %s no longer serializes as deposited", d.key)
		}
		m := testMachine(t)
		if err := m.Restore(snap); err != nil {
			t.Fatalf("survivor %s: %v", d.key, err)
		}
		if digest(m.Snapshot()) != d.sum {
			t.Fatalf("survivor %s restored to a different state", d.key)
		}
	}
	if survivors != st.Entries {
		t.Fatalf("%d survivors found, store reports %d entries", survivors, st.Entries)
	}
	// Half by Discard, newest first; the rest by a deposit that needs
	// the whole budget; then that one too.
	for i := len(deposits) - 1; i >= 0 && s.Stats().Entries > survivors/2; i-- {
		s.Discard(deposits[i].key)
	}
	audit(t, s, "after discarding half")
	big := newTrajectory(t, "swim", 5000).next()
	s.Put(Key{Workload: "swim", Hash: 1, Scale: 5000, Instr: big.Instructions()}, big)
	audit(t, s, "after the evicting deposit")
	s.Discard(Key{Workload: "swim", Hash: 1, Scale: 5000, Instr: big.Instructions()})
	for _, d := range deposits {
		s.Discard(d.key)
	}
	audit(t, s, "emptied")
	if st := s.Stats(); st.Bytes != 0 || st.Entries != 0 || len(s.refs) != 0 {
		t.Fatalf("emptied store still accounts %d bytes, %d entries, %d identities", st.Bytes, st.Entries, len(s.refs))
	}
}

// TestStoreSharedSnapshotsConcurrent is the race-detector test for
// identity sharing: the pieces of one primed trajectory are reachable
// from many entries, and here from several machines at once. Workers
// restore random entries into their own machine, run on, capture and
// deposit under their own keys while another goroutine discards the
// neighbours those entries share their pieces with. Every capture must
// equal the same schedule run alone.
func TestStoreSharedSnapshotsConcurrent(t *testing.T) {
	const (
		primed  = 160
		workers = 4
		rounds  = 60
	)
	prime := func() (*Store, []Key) {
		tr := smallTrajectory(t)
		s := NewMemory()
		var keys []Key
		for len(keys) < primed {
			snap := tr.next()
			if snap == nil {
				t.Fatal("trajectory too short")
			}
			keys = append(keys, testKey(snap.Instructions()))
			s.Put(keys[len(keys)-1], snap)
		}
		return s, keys
	}
	// worker restores even-numbered entries only; the odd ones are the
	// discarder's.
	worker := func(s *Store, keys []Key, g int) ([]uint64, error) {
		rng := mix.NewRNG(uint64(g) + 1)
		m := testMachine(t)
		var out []uint64
		for r := 0; r < rounds; r++ {
			k := keys[2*rng.Intn(len(keys)/2)]
			snap, ok := s.Lookup(k)
			if !ok {
				return nil, fmt.Errorf("worker %d: %s missing", g, k)
			}
			if err := m.Restore(snap); err != nil {
				return nil, fmt.Errorf("worker %d: restore %s: %v", g, k, err)
			}
			m.Run(uint64(1+rng.Intn(400)), nil)
			got := m.Snapshot()
			s.Put(Key{Workload: "worker", Hash: uint64(g), Scale: r, Instr: got.Instructions()}, got)
			out = append(out, digest(got))
		}
		return out, nil
	}

	alone, keys := prime()
	want := make([][]uint64, workers)
	for g := range want {
		var err error
		if want[g], err = worker(alone, keys, g); err != nil {
			t.Fatal(err)
		}
	}

	s, keys := prime()
	got := make([][]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = worker(s, keys, g)
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < len(keys); i += 2 {
			s.Discard(keys[i])
			runtime.Gosched()
		}
	}()
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r := range got[g] {
			if got[g][r] != want[g][r] {
				t.Fatalf("worker %d round %d: concurrent capture differs from the run alone", g, r)
			}
		}
	}
	audit(t, s, "after the concurrent run")
}
