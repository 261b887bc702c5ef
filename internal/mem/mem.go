// Package mem implements the guest physical/virtual memory used by the
// functional simulator.
//
// The guest address space is flat and demand-zero: pages are materialised
// on first touch, and that first touch is reported to the VM as a minor
// page fault (one of the "virtual memory page misses" the paper's EXC
// metric counts). All guest accesses are 8-byte words — the ISA is a
// 64-bit word machine — which keeps the hot load/store path to shifts,
// two indexes and a bounds check.
package mem

import (
	"fmt"
	"hash/fnv"
	"sort"
	"unsafe"

	"repro/internal/mix"
)

const (
	// PageShift is log2 of the guest page size (4 KB, as in Table 1).
	PageShift = 12
	// PageBytes is the guest page size in bytes.
	PageBytes = 1 << PageShift
	// WordsPerPage is the number of 64-bit words in one page.
	WordsPerPage = PageBytes / 8
	// LeafShift is log2 of the pages one directory leaf maps: 512
	// pages, a 2 MiB region.
	LeafShift = 9
	// LeafPages is the number of pages one leaf maps.
	LeafPages = 1 << LeafShift
)

// Page is the storage for one guest page.
type Page [WordsPerPage]uint64

// Leaf is the page table of one 2 MiB region: its pages (nil where not
// materialised) and their seal flags (the page is shared with a
// snapshot: copy before write).
type Leaf struct {
	Pages  [LeafPages]*Page
	Sealed [LeafPages]bool
}

// emptyLeaf stands in for every region no page has been put in yet. It
// is shared by every Memory and never written: materialise and Restore
// replace it with a fresh leaf first.
var emptyLeaf Leaf

// Memory is a demand-paged flat guest address space. Its page table is
// a fixed-length directory with one leaf per 2 MiB region, so a memory
// costs one pointer per region until its guest touches the region.
// Snapshots are copy-on-write: Snapshot and Restore share page storage
// with the memory and seal the shared pages; the next guest write to a
// sealed page copies it first. Checkpointing therefore costs O(pages)
// pointer work plus one page copy per page actually dirtied afterwards,
// not a full copy of the resident set — and nothing at all while the
// page table has not changed since the previous capture or restore.
type Memory struct {
	dir       []*Leaf  // leaf i maps vpns [i·LeafPages, (i+1)·LeafPages)
	live      []uint64 // vpns of materialised pages (unordered, no duplicates)
	spanBytes uint64
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
	dir := make([]*Leaf, (npages+LeafPages-1)/LeafPages)
	for i := range dir {
		dir[i] = &emptyLeaf
	}
	return &Memory{dir: dir, spanBytes: npages * PageBytes}
}

// Span returns the size of the addressable space in bytes.
func (m *Memory) Span() uint64 { return m.spanBytes }

// AllocatedPages returns the number of pages materialised so far.
func (m *Memory) AllocatedPages() int { return len(m.live) }

// page returns the page holding vpn, or nil when it is not materialised
// or lies outside the span.
func (m *Memory) page(vpn uint64) *Page {
	if d := vpn >> LeafShift; d < uint64(len(m.dir)) {
		return m.dir[d].Pages[vpn&(LeafPages-1)]
	}
	return nil
}

// Read64 loads the 64-bit word at addr (forced to 8-byte alignment),
// materialising its page on first touch; faulted reports that touch.
// An address outside the span panics. The interpreter reads mapped
// pages through Raw and calls Read64 only when that fast path misses.
func (m *Memory) Read64(addr uint64) (v uint64, faulted bool) {
	p := m.page(addr >> PageShift)
	if p == nil {
		p, faulted = m.materialise(addr), true
	}
	return p[addr>>3&(WordsPerPage-1)], faulted
}

// Write64 stores a 64-bit word at addr (forced to 8-byte alignment),
// materialising its page on first touch (faulted reports it; program
// loading discards the flag) and copying a sealed page first. An
// address outside the span panics. Like Read64, the interpreter's slow
// path behind Raw.
func (m *Memory) Write64(addr, v uint64) (faulted bool) {
	vpn := addr >> PageShift
	p := m.page(vpn)
	if p == nil {
		p, faulted = m.materialise(addr), true
	} else if m.dir[vpn>>LeafShift].Sealed[vpn&(LeafPages-1)] {
		p = m.unseal(vpn)
	}
	p[addr>>3&(WordsPerPage-1)] = v
	return faulted
}

// Peek reads a word without materialising pages or reporting faults;
// unmapped addresses read as zero. Used by debugging and device DMA
// checks, never by the guest-visible access path.
func (m *Memory) Peek(addr uint64) uint64 {
	if p := m.page(addr >> PageShift); p != nil {
		return p[addr>>3&(WordsPerPage-1)]
	}
	return 0
}

// Raw exposes the page directory for the interpreter's inlined
// load/store fast path: page vpn is dir[vpn>>LeafShift].Pages[vpn&(LeafPages-1)],
// nil while unmapped. The directory is the memory's own and keeps its
// length for the memory's lifetime; materialisation (which replaces a
// slot's shared empty leaf in place) and copy-on-write unsealing stay
// visible through it. Callers may only read mapped words and write
// mapped, unsealed words through it; all else goes through Read64/Write64.
func (m *Memory) Raw() []*Leaf { return m.dir }

// Mapped reports whether the page containing addr has been materialised.
func (m *Memory) Mapped(addr uint64) bool { return m.page(addr>>PageShift) != nil }

// leaf returns the leaf mapping vpn, putting a fresh one in place of
// the shared empty leaf.
func (m *Memory) leaf(vpn uint64) *Leaf {
	l := m.dir[vpn>>LeafShift]
	if l == &emptyLeaf {
		l = new(Leaf)
		m.dir[vpn>>LeafShift] = l
	}
	return l
}

func (m *Memory) materialise(addr uint64) *Page {
	vpn := addr >> PageShift
	if vpn >= m.spanBytes>>PageShift {
		panic(fmt.Sprintf("mem: guest access out of range: %#x", addr))
	}
	p := new(Page)
	m.leaf(vpn).Pages[vpn&(LeafPages-1)] = p
	m.live = append(m.live, vpn)
	m.at = nil
	return p
}

// unseal gives the memory a private copy of a page currently shared
// with one or more snapshots. The snapshots keep the old storage.
func (m *Memory) unseal(vpn uint64) *Page {
	l, i := m.dir[vpn>>LeafShift], vpn&(LeafPages-1)
	cp := *l.Pages[i]
	l.Pages[i], l.Sealed[i] = &cp, false
	m.at = nil
	return &cp
}

// Digest returns an FNV-1a hash of the materialised memory contents,
// including which pages are materialised. Two memories that executed the
// same guest operations digest identically; the differential harness
// (internal/check) uses this as its memory-equality witness.
func (m *Memory) Digest() uint64 {
	h := fnv.New64a()
	w := mix.NewWriter(h)
	for d, l := range m.dir {
		for i, p := range l.Pages {
			if p == nil {
				continue
			}
			w.Words(uint64(d<<LeafShift + i))
			w.Words(p[:]...)
		}
	}
	return h.Sum64()
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
	s := &Snapshot{spanBytes: m.spanBytes, pages: make([]pageEntry, 0, len(m.live))}
	sort.Slice(m.live, func(i, j int) bool { return m.live[i] < m.live[j] })
	for _, vpn := range m.live {
		l, i := m.dir[vpn>>LeafShift], vpn&(LeafPages-1)
		s.pages = append(s.pages, pageEntry{vpn: vpn, pg: l.Pages[i]})
		l.Sealed[i] = true
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
		l, i := m.dir[vpn>>LeafShift], vpn&(LeafPages-1)
		l.Pages[i], l.Sealed[i] = nil, false
	}
	m.live = m.live[:0]
	for _, e := range s.pages {
		l, i := m.leaf(e.vpn), e.vpn&(LeafPages-1)
		l.Pages[i], l.Sealed[i] = e.pg, true
		m.live = append(m.live, e.vpn)
	}
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
