package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

// refCache is the replacement policy's oracle: true LRU written as the
// definition reads — find the tag, move it to the front with copy, or
// push it at the front and drop the last — with no fast path.
type refCache struct {
	lineShift uint
	setMask   uint64
	sets      [][]uint64 // per set, MRU first; 0 = invalid, else line+1
	stats     Stats
}

func newRefCache(cfg Config) *refCache {
	c := New(cfg) // geometry validation and derivation only
	r := &refCache{lineShift: c.lineShift, setMask: c.setMask, sets: make([][]uint64, c.setMask+1)}
	for i := range r.sets {
		r.sets[i] = make([]uint64, cfg.Ways)
	}
	return r
}

func (r *refCache) Access(addr uint64) bool {
	line := addr >> r.lineShift
	set := r.sets[line&r.setMask]
	tag := line + 1
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			r.stats.Hits++
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	r.stats.Misses++
	return false
}

// diff compares the cache's full replacement state and counters with
// the reference's.
func (r *refCache) diff(c *Cache) string {
	if c.stats != r.stats {
		return fmt.Sprintf("stats: cache %+v, ref %+v", c.stats, r.stats)
	}
	for s, set := range r.sets {
		got := c.tags[s*c.ways : (s+1)*c.ways]
		for w := range set {
			if got[w] != set[w] {
				return fmt.Sprintf("set %d: cache %v, ref %v", s, got, set)
			}
		}
	}
	return ""
}

// addrStream is a seeded access stream with the locality real streams
// have: runs on one line (MRU hits), a hot region that fits, a region
// that thrashes, and occasional far addresses.
func addrStream(seed uint64, n int) []uint64 {
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]uint64, 0, n)
	var last uint64
	for len(out) < n {
		r := next()
		switch r % 8 {
		case 0, 1, 2:
			last += (r >> 8) % 16 // same or next line
		case 3, 4:
			last = 0x10000 + (r>>8)%(8<<10) // hot 8 KB
		case 5, 6:
			last = 0x400000 + (r>>8)%(4<<20) // 4 MB: misses everywhere
		default:
			last = (r >> 8) << 3 // anywhere in the address space
		}
		out = append(out, last)
	}
	return out
}

var refGeometries = []Config{
	{Name: "L1", SizeBytes: 64 << 10, Ways: 2, LineBytes: 64},
	{Name: "L2", SizeBytes: 1 << 20, Ways: 4, LineBytes: 128},
	{Name: "direct", SizeBytes: 4 << 10, Ways: 1, LineBytes: 64},
	{Name: "3way", SizeBytes: 3 * 16 * 64, Ways: 3, LineBytes: 64},
	{Name: "8way", SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},
	{Name: "fully", SizeBytes: 40, Ways: 40, LineBytes: 1},
}

// TestAccessMatchesReference: Cache.Access returns what the reference
// LRU returns on every access and leaves the same tags in the same
// order, on every geometry the model uses and a few it does not.
func TestAccessMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries {
		for seed := uint64(1); seed <= 3; seed++ {
			c, r := New(cfg), newRefCache(cfg)
			for i, a := range addrStream(seed, 60_000) {
				if cfg.LineBytes == 1 {
					a >>= 12 // TLB-shaped: the stream is page numbers
				}
				if got, want := c.Access(a), r.Access(a); got != want {
					t.Fatalf("%s seed %d access %d (%#x): hit=%v, reference %v", cfg.Name, seed, i, a, got, want)
				}
				if i%997 == 0 {
					if d := r.diff(c); d != "" {
						t.Fatalf("%s seed %d after access %d: %s", cfg.Name, seed, i, d)
					}
				}
			}
			if d := r.diff(c); d != "" {
				t.Fatalf("%s seed %d: %s", cfg.Name, seed, d)
			}
		}
	}
}

// TestTLBMatchesReference covers both Table 1 TLB shapes through the
// TLB wrapper, including its statistics.
func TestTLBMatchesReference(t *testing.T) {
	for _, cfg := range []TLBConfig{
		{Name: "DTLB", Entries: 40, Ways: 0, PageShift: 12},
		{Name: "L2TLB", Entries: 512, Ways: 4, PageShift: 12},
	} {
		tlb := NewTLB(cfg)
		r := newRefCache(tlb.inner.cfg)
		for i, a := range addrStream(7, 80_000) {
			if got, want := tlb.Access(a), r.Access(a>>cfg.PageShift); got != want {
				t.Fatalf("%s access %d (%#x): hit=%v, reference %v", cfg.Name, i, a, got, want)
			}
		}
		if d := r.diff(tlb.inner); d != "" {
			t.Fatalf("%s: %s", cfg.Name, d)
		}
		if tlb.Stats() != r.stats {
			t.Fatalf("%s stats %+v, reference %+v", cfg.Name, tlb.Stats(), r.stats)
		}
	}
}

// TestLRUStackInclusion: with the same sets, a cache with more ways
// holds a superset of what a cache with fewer ways holds (the LRU stack
// property), so on any stream every hit in the smaller is a hit in the
// larger and the larger never misses more.
func TestLRUStackInclusion(t *testing.T) {
	f := func(seed uint64, waysRaw, moreRaw uint8) bool {
		const sets, line = 16, 64
		ways := 1 + int(waysRaw%6)
		more := ways + 1 + int(moreRaw%6)
		small := New(Config{Name: "small", SizeBytes: uint64(sets * ways * line), Ways: ways, LineBytes: line})
		large := New(Config{Name: "large", SizeBytes: uint64(sets * more * line), Ways: more, LineBytes: line})
		for _, a := range addrStream(seed, 8_000) {
			a %= 1 << 16 // 1024 lines over 16 sets: both caches contended
			hs, hl := small.Access(a), large.Access(a)
			if hs && !hl {
				return false
			}
		}
		return large.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAccessDoesNotAllocate pins the package comment's promise.
func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(refGeometries[1])
	tlb := NewTLB(TLBConfig{Name: "DTLB", Entries: 40, PageShift: 12})
	addrs := addrStream(3, 4096)
	if n := testing.AllocsPerRun(10, func() {
		for _, a := range addrs {
			c.Access(a)
			tlb.Access(a)
		}
	}); n != 0 {
		t.Fatalf("Access allocates: %v allocs per run", n)
	}
}
