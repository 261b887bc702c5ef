// Package mem implements the guest physical/virtual memory used by the
// functional simulator.
//
// The guest address space is flat and demand-zero: pages are materialised
// on first touch, and that first touch is reported to the VM as a minor
// page fault (one of the "virtual memory page misses" the paper's EXC
// metric counts). All guest accesses are 8-byte words — the ISA is a
// 64-bit word machine — which keeps the hot load/store path to a shift,
// an index, and a bounds check.
package mem

import (
	"fmt"
	"sort"
	"unsafe"
)

const (
	// PageShift is log2 of the guest page size (4 KB, as in Table 1).
	PageShift = 12
	// PageBytes is the guest page size in bytes.
	PageBytes = 1 << PageShift
	// WordsPerPage is the number of 64-bit words in one page.
	WordsPerPage = PageBytes / 8
)

// Page is the storage for one guest page.
type Page [WordsPerPage]uint64

// Memory is a demand-paged flat guest address space. Snapshots are
// copy-on-write: Snapshot and Restore share page storage with the
// memory and seal the shared pages; the next guest write to a sealed
// page copies it first. Checkpointing therefore costs O(pages) pointer
// work plus one page copy per page actually dirtied afterwards, not a
// full copy of the resident set — and nothing at all while the page
// table has not changed since the previous capture or restore.
type Memory struct {
	pages     []*Page
	sealed    []bool   // page is shared with a snapshot: copy before write
	live      []uint64 // vpns of materialised pages (unordered, no duplicates)
	spanBytes uint64
	allocated int
	// at is the snapshot this memory still equals page for page: the one
	// last captured from it or restored into it, every live page still
	// that snapshot's storage and still sealed. The page table changes
	// only in materialise and unseal, and both clear it. While it is
	// set, Snapshot returns it again and Restore to it has nothing to do.
	at *Snapshot
}

// New creates a guest memory covering spanBytes of address space
// (rounded up to a whole number of pages). No pages are allocated yet.
func New(spanBytes uint64) *Memory {
	npages := (spanBytes + PageBytes - 1) / PageBytes
	return &Memory{
		pages:     make([]*Page, npages),
		sealed:    make([]bool, npages),
		spanBytes: npages * PageBytes,
	}
}

// Span returns the size of the addressable space in bytes.
func (m *Memory) Span() uint64 { return m.spanBytes }

// AllocatedPages returns the number of pages materialised so far.
func (m *Memory) AllocatedPages() int { return m.allocated }

// Read64 loads the 64-bit word at addr (forced to 8-byte alignment).
// faulted reports whether the access materialised a fresh page.
//
// The common case — a mapped page — is kept small enough for the
// compiler to inline into the interpreter's load path; materialisation
// and the out-of-range panic live in read64Slow.
func (m *Memory) Read64(addr uint64) (v uint64, faulted bool) {
	vpn := addr >> PageShift
	if vpn < uint64(len(m.pages)) {
		if p := m.pages[vpn]; p != nil {
			return p[addr>>3&(WordsPerPage-1)], false
		}
	}
	return m.read64Slow(addr)
}

func (m *Memory) read64Slow(addr uint64) (uint64, bool) {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.pages)) {
		panic(fmt.Sprintf("mem: guest access out of range: %#x", addr))
	}
	p := m.materialise(vpn)
	return p[addr>>3&(WordsPerPage-1)], true
}

// Write64 stores a 64-bit word at addr (forced to 8-byte alignment).
// faulted reports whether the access materialised a fresh page.
//
// Like Read64, the mapped-and-unsealed case is inlineable; page
// materialisation and copy-on-write unsealing live in write64Slow.
func (m *Memory) Write64(addr, v uint64) (faulted bool) {
	vpn := addr >> PageShift
	if vpn < uint64(len(m.pages)) {
		if p := m.pages[vpn]; p != nil && !m.sealed[vpn] {
			p[addr>>3&(WordsPerPage-1)] = v
			return false
		}
	}
	return m.write64Slow(addr, v)
}

func (m *Memory) write64Slow(addr, v uint64) bool {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.pages)) {
		panic(fmt.Sprintf("mem: guest access out of range: %#x", addr))
	}
	p := m.pages[vpn]
	faulted := false
	if p == nil {
		p = m.materialise(vpn)
		faulted = true
	} else if m.sealed[vpn] {
		p = m.unseal(vpn)
	}
	p[addr>>3&(WordsPerPage-1)] = v
	return faulted
}

// Peek reads a word without materialising pages or reporting faults;
// unmapped addresses read as zero. Used by debugging and device DMA
// checks, never by the guest-visible access path.
func (m *Memory) Peek(addr uint64) uint64 {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.pages)) || m.pages[vpn] == nil {
		return 0
	}
	return m.pages[vpn][addr>>3&(WordsPerPage-1)]
}

// Populate writes a word, materialising the page silently (no fault
// accounting). Program loading uses it so that the loader does not
// perturb the guest's exception statistics.
func (m *Memory) Populate(addr, v uint64) {
	vpn := addr >> PageShift
	if vpn >= uint64(len(m.pages)) {
		panic(fmt.Sprintf("mem: populate out of range: %#x", addr))
	}
	if m.pages[vpn] == nil {
		m.materialise(vpn)
	} else if m.sealed[vpn] {
		m.unseal(vpn)
	}
	m.pages[vpn][addr>>3&(WordsPerPage-1)] = v
}

// Raw exposes the page table and seal flags for the interpreter's
// inlined load/store fast path. The returned slices alias the memory's
// own tables (whose length is fixed for the memory's lifetime), so
// page materialisation and copy-on-write unsealing through the normal
// access paths stay visible to holders. Callers may only read mapped
// words and write mapped, unsealed words through these tables; every
// other access must go through Read64/Write64.
func (m *Memory) Raw() (pages []*Page, sealed []bool) { return m.pages, m.sealed }

// Mapped reports whether the page containing addr has been materialised.
func (m *Memory) Mapped(addr uint64) bool {
	vpn := addr >> PageShift
	return vpn < uint64(len(m.pages)) && m.pages[vpn] != nil
}

func (m *Memory) materialise(vpn uint64) *Page {
	p := new(Page)
	m.pages[vpn] = p
	m.live = append(m.live, vpn)
	m.allocated++
	m.at = nil
	return p
}

// unseal gives the memory a private copy of a page currently shared
// with one or more snapshots. The snapshots keep the old storage.
func (m *Memory) unseal(vpn uint64) *Page {
	cp := *m.pages[vpn]
	m.pages[vpn] = &cp
	m.sealed[vpn] = false
	m.at = nil
	return &cp
}

// Digest returns an FNV-1a hash of the materialised memory contents,
// including which pages are materialised. Two memories that executed the
// same guest operations digest identically; the differential harness
// (internal/check) uses this as its memory-equality witness.
func (m *Memory) Digest() uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime
		}
	}
	for vpn, p := range m.pages {
		if p == nil {
			continue
		}
		mix(uint64(vpn))
		for _, w := range p {
			mix(w)
		}
	}
	return h
}

// pageEntry is one materialised page of a snapshot.
type pageEntry struct {
	vpn uint64
	pg  *Page
}

// Snapshot holds the materialised pages of a memory at one point in
// time, ascending by vpn. Page storage is shared copy-on-write with the
// Memory it came from (and with any Memory it is restored into): a
// snapshot's pages are immutable once captured, because every
// guest-write path copies a sealed page before mutating it. The
// snapshot itself is immutable too, and one *Snapshot stands for every
// capture of a memory whose page table did not change in between.
type Snapshot struct {
	spanBytes uint64
	pages     []pageEntry // ascending vpn
}

// Snapshot captures the current memory contents. A memory that has not
// materialised or unsealed a page since its previous capture or restore
// returns that same snapshot; otherwise the capture is O(pages · log
// pages) pointer work: the pages are shared with the snapshot and
// sealed, and the next write to each one copies it first.
func (m *Memory) Snapshot() *Snapshot {
	if m.at != nil {
		return m.at
	}
	s := &Snapshot{spanBytes: m.spanBytes, pages: make([]pageEntry, 0, m.allocated)}
	sort.Slice(m.live, func(i, j int) bool { return m.live[i] < m.live[j] })
	for _, vpn := range m.live {
		s.pages = append(s.pages, pageEntry{vpn: vpn, pg: m.pages[vpn]})
		m.sealed[vpn] = true
	}
	m.at = s
	return s
}

// Restore replaces the memory contents with the snapshot, sharing the
// snapshot's page storage copy-on-write. The memory must have been
// created with the same span. Restoring the snapshot the memory is
// still at touches nothing.
func (m *Memory) Restore(s *Snapshot) error {
	if s.spanBytes != m.spanBytes {
		return fmt.Errorf("mem: snapshot span %d != memory span %d", s.spanBytes, m.spanBytes)
	}
	if m.at == s {
		return nil
	}
	for _, vpn := range m.live {
		m.pages[vpn] = nil
		m.sealed[vpn] = false
	}
	m.live = m.live[:0]
	for _, e := range s.pages {
		m.pages[e.vpn] = e.pg
		m.sealed[e.vpn] = true
		m.live = append(m.live, e.vpn)
	}
	m.allocated = len(s.pages)
	m.at = s
	return nil
}

// Parts reports the snapshot's separately allocated pieces by identity
// and size: the page table first and then, only if visit returned true
// for it, each page. Snapshots of one trajectory share unmodified pages
// and whole unchanged page tables; the checkpoint store refcounts both
// through this walk, so a holder that already counts the page table
// takes one reference on it instead of one per page.
func (s *Snapshot) Parts(visit func(id any, bytes int64) bool) {
	table := int64(unsafe.Sizeof(*s)) + int64(len(s.pages))*int64(unsafe.Sizeof(pageEntry{}))
	if !visit(s, table) {
		return
	}
	for _, e := range s.pages {
		visit(e.pg, PageBytes)
	}
}
