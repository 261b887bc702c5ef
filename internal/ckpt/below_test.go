package ckpt

import (
	"math/rand"
	"testing"

	"repro/internal/vm"
)

// TestBelowMatchesScan drives random sequences of Put, Discard, LRU
// eviction and disk reopen over two series, and after every step holds
// Below and Nearest to a brute-force scan of Contains over every count
// the sequence uses: the same count, the same snapshot, and a miss
// exactly where the scan finds nothing. Half the sequences run on a
// memory-only store whose budget holds a few entries, so evicted keys
// leave the index; the other half on a disk tier that a reopen indexes
// afresh.
func TestBelowMatchesScan(t *testing.T) {
	t.Parallel()
	counts := []uint64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	snaps := map[uint64]*vm.Snapshot{}
	for _, c := range counts {
		snaps[c] = snapAt(t, c)
	}
	probe := NewMemory()
	probe.Put(testKey(100), snaps[100])
	entryBytes := probe.Stats().Bytes
	other := func(instr uint64) Key { k := testKey(instr); k.Workload = "mcf"; return k }

	var evictions, hits uint64
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{MaxBytes: 3 * entryBytes}
		if seed%2 == 1 {
			opts = Options{Dir: t.TempDir()}
		}
		open := func() *Store {
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s := open()
		for step := 0; step < 60; step++ {
			c := counts[rng.Intn(len(counts))]
			switch op := rng.Intn(10); {
			case op < 4:
				s.Put(testKey(c), snaps[c])
			case op < 5:
				s.Put(other(c), snaps[c])
			case op < 7:
				s.Discard(testKey(c))
			case op < 8 && opts.Dir != "":
				evictions += s.Stats().Evictions
				s = open()
			}
			target, from := uint64(rng.Intn(1100)), uint64(rng.Intn(13))*50
			want, held := uint64(0), false
			for _, c := range counts {
				if c <= target && c >= from && s.Contains(testKey(c)) {
					want, held = c, true
				}
			}
			snap, got, ok := s.Below(testKey(target), from)
			if ok != held || got != want || (ok && snap.Instructions() != want) {
				t.Fatalf("seed %d step %d: Below(%d, from %d) = %d %v, scan %d %v", seed, step, target, from, got, ok, want, held)
			}
			if ok {
				hits++
			}
			want, held = 0, false
			for _, c := range counts {
				if c <= target && s.Contains(testKey(c)) {
					want, held = c, true
				}
			}
			snap, got, ok = s.Nearest(testKey(target))
			if ok != held || got != want || (ok && snap.Instructions() != want) {
				t.Fatalf("seed %d step %d: Nearest(%d) = %d %v, scan %d %v", seed, step, target, got, ok, want, held)
			}
		}
		evictions += s.Stats().Evictions
	}
	if evictions == 0 || hits == 0 {
		t.Fatalf("%d evictions, %d Below hits: the sequences never evicted or never found a snapshot (vacuous)", evictions, hits)
	}
}
