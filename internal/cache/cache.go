// Package cache provides the set-associative cache and TLB models shared
// by the timing simulator. The models are *timing* models: they track
// tags and replacement state, not data (the functional simulator owns the
// data). They are deterministic and allocation-free on the access path.
package cache

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mix"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes uint64
	Ways      int
	LineBytes uint64
}

// Stats holds hit/miss counters.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio (0 when unused).
func (s Stats) MissRate() float64 {
	if t := s.Accesses(); t > 0 {
		return float64(s.Misses) / float64(t)
	}
	return 0
}

// Cache is a set-associative cache with true-LRU replacement and
// write-allocate stores.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	// tags[set*ways+way]; order is LRU: position 0 is MRU. Zero means
	// invalid; stored value is tag+1.
	tags  []uint64
	stats Stats
}

// New builds a cache from config. Size, ways and line size must be
// powers of two and consistent.
func New(cfg Config) *Cache {
	if cfg.LineBytes == 0 || cfg.SizeBytes == 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	if sets == 0 || sets&(sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: non-power-of-two geometry %+v", cfg))
	}
	c := &Cache{
		cfg:  cfg,
		ways: cfg.Ways,
		tags: make([]uint64, lines),
	}
	for c.cfg.LineBytes>>c.lineShift > 1 {
		c.lineShift++
	}
	c.setMask = sets - 1
	return c
}

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up addr, allocating the line on miss (reads and writes
// both allocate). It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	tag := line + 1 // full line number as tag (+1 so 0 = invalid)
	base := int(line&c.setMask) * c.ways
	ways := c.tags[base : base+c.ways]
	if ways[0] == tag {
		// Already MRU, the common case: nothing to reorder.
		c.stats.Hits++
		return true
	}
	// One pass: every way the search passes is shifted one step towards
	// LRU as it goes, so a hit at i has already moved [0,i) to [1,i] and
	// a miss has already dropped the last way.
	prev := ways[0]
	for i := 1; i < len(ways); i++ {
		cur := ways[i]
		ways[i] = prev
		if cur == tag {
			ways[0] = tag
			c.stats.Hits++
			return true
		}
		prev = cur
	}
	ways[0] = tag
	c.stats.Misses++
	return false
}

// Contains reports whether addr is currently resident, without touching
// replacement state or statistics (for tests and invariant checks).
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	tag := line + 1
	base := int(set) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines (statistics are preserved).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// Digest returns an FNV-1a hash over the cache's complete replacement
// state — every tag in every set, in LRU order — plus the hit/miss
// counters. Two caches with equal digests saw access streams that left
// them observationally indistinguishable: same residency, same
// eviction order, same statistics. The equivalence harnesses use it to
// pin a shared cache's state byte-for-byte across schedules without
// exporting the tag array.
func (c *Cache) Digest() uint64 {
	h := fnv.New64a()
	w := mix.NewWriter(h)
	w.Words(c.tags...)
	w.Words(c.stats.Hits, c.stats.Misses)
	return h.Sum64()
}

// TLBConfig describes a TLB level. Ways == 0 means fully associative.
type TLBConfig struct {
	Name    string
	Entries int
	Ways    int
	// PageShift is log2 of the page size (12 for 4 KB, Table 1).
	PageShift uint
}

// TLB is a translation look-aside buffer timing model.
type TLB struct {
	cfg   TLBConfig
	inner *Cache
}

// NewTLB builds a TLB from config.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.PageShift == 0 {
		cfg.PageShift = 12
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries // fully associative: one set
	}
	inner := New(Config{
		Name:      cfg.Name,
		SizeBytes: uint64(cfg.Entries),
		Ways:      ways,
		LineBytes: 1,
	})
	return &TLB{cfg: cfg, inner: inner}
}

// Stats returns the access counters.
func (t *TLB) Stats() Stats { return t.inner.stats }

// Access looks up the page of addr, allocating on miss, and reports hit.
func (t *TLB) Access(addr uint64) bool {
	return t.inner.Access(addr >> t.cfg.PageShift)
}

// Contains reports residency without side effects.
func (t *TLB) Contains(addr uint64) bool {
	return t.inner.Contains(addr >> t.cfg.PageShift)
}

// Flush invalidates all entries.
func (t *TLB) Flush() { t.inner.Flush() }

// Digest returns an FNV-1a hash over the TLB's full entry and
// replacement state plus its hit/miss counters (see Cache.Digest).
func (t *TLB) Digest() uint64 { return t.inner.Digest() }
