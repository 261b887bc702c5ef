package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 20)
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 20
		m.Write64(addr, v)
		got, _ := m.Read64(addr)
		return got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDemandZeroAndFaultAccounting(t *testing.T) {
	m := New(1 << 20)
	v, faulted := m.Read64(0x3000)
	if v != 0 || !faulted {
		t.Fatalf("first read: v=%d faulted=%v, want 0,true", v, faulted)
	}
	if _, faulted := m.Read64(0x3008); faulted {
		t.Fatal("second touch of same page must not fault")
	}
	if faulted := m.Write64(0x3010, 7); faulted {
		t.Fatal("write to mapped page must not fault")
	}
	if faulted := m.Write64(0x5000, 7); !faulted {
		t.Fatal("write to fresh page must fault")
	}
	if m.AllocatedPages() != 2 {
		t.Fatalf("allocated pages = %d, want 2", m.AllocatedPages())
	}
}

func TestAlignmentForced(t *testing.T) {
	m := New(1 << 16)
	m.Write64(0x107, 42) // forced to 0x100
	if v, _ := m.Read64(0x100); v != 42 {
		t.Fatalf("unaligned write not forced to word boundary: %d", v)
	}
}

// TestPopulateIsSilent pins what program loading relies on: a Write64
// whose fault flag is discarded maps the page, and the next read finds
// the value without faulting again.
func TestPopulateIsSilent(t *testing.T) {
	m := New(1 << 16)
	m.Write64(0x2000, 99)
	if !m.Mapped(0x2000) {
		t.Fatal("write must map the page")
	}
	if v, faulted := m.Read64(0x2000); v != 99 || faulted {
		t.Fatalf("read after write: v=%d faulted=%v", v, faulted)
	}
}

func TestPeekNoSideEffects(t *testing.T) {
	m := New(1 << 16)
	if v := m.Peek(0x4000); v != 0 {
		t.Fatalf("peek of unmapped = %d, want 0", v)
	}
	if m.Mapped(0x4000) {
		t.Fatal("peek must not materialise pages")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1 << 16)
	for _, f := range []func(){
		func() { m.Read64(1 << 20) },
		func() { m.Write64(1<<20, 1) },
		func() { m.Read64(1 << 16) }, // first page past the span, inside its leaf
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New(1 << 20)
	m.Write64(0x1000, 1)
	m.Write64(0x8000, 2)
	snap := m.Snapshot()
	m.Write64(0x1000, 99)
	m.Write64(0xf000, 3)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 1 {
		t.Fatalf("restored value = %d, want 1", v)
	}
	if m.Mapped(0xf000) {
		t.Fatal("page mapped after snapshot must be gone after restore")
	}
	if m.AllocatedPages() != 2 {
		t.Fatalf("allocated after restore = %d, want 2", m.AllocatedPages())
	}
}

// TestSnapshotCopyOnWriteIsolation pins the sharing discipline behind
// O(pages) snapshots: page storage is shared between a snapshot, the
// memory it came from, and any memory restored from it, and a write on
// any side must never be visible on another.
func TestSnapshotCopyOnWriteIsolation(t *testing.T) {
	m := New(1 << 20)
	for a := uint64(0); a < 4*PageBytes; a += 8 {
		m.Write64(a, a+1)
	}
	snap := m.Snapshot()

	// Writes after the snapshot must not leak into it.
	m.Write64(0, 0xdead)
	if got := snap.Peek(0); got != 1 {
		t.Fatalf("snapshot saw a post-snapshot write: %#x, want 1", got)
	}

	// A second memory restored from the snapshot shares the same
	// storage; writes on either memory stay private.
	m2 := New(1 << 20)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	m2.Write64(8, 0xbeef)
	if v, _ := m.Read64(8); v != 9 {
		t.Fatalf("write in restored memory leaked into source: %#x, want 9", v)
	}
	if got := snap.Peek(8); got != 9 {
		t.Fatalf("write in restored memory leaked into snapshot: %#x, want 9", got)
	}
	m.Write64(16, 0xf00d)
	if v, _ := m2.Read64(16); v != 17 {
		t.Fatalf("write in source leaked into restored memory: %#x, want 17", v)
	}

	// Restoring the snapshot again still yields the pre-write contents.
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 4*PageBytes; a += 8 {
		if v, _ := m.Read64(a); v != a+1 {
			t.Fatalf("restored word at %#x = %#x, want %#x", a, v, a+1)
		}
	}
}

// TestSnapshotIdentityFollowsThePageTable pins when two captures may be
// one *Snapshot: exactly while the page table has not changed. Reads of
// mapped pages and writes to private pages keep it; a demand-zero fault
// (by load or by store) and the first write to each sealed
// page end it; a restore rebases it on the restored snapshot.
func TestSnapshotIdentityFollowsThePageTable(t *testing.T) {
	m := New(1 << 20)
	m.Write64(0x1000, 1)
	m.Write64(0x2000, 2)
	s1 := m.Snapshot()
	if m.Snapshot() != s1 {
		t.Fatal("back-to-back captures are two snapshots")
	}
	m.Read64(0x1000)
	m.Peek(0x9000)
	if m.Snapshot() != s1 {
		t.Fatal("a read of a mapped page changed the capture's identity")
	}

	changes := []struct {
		name string
		do   func()
	}{
		{"write to a sealed page", func() { m.Write64(0x1008, 7) }},
		{"read fault", func() { m.Read64(0x5000) }},
		{"write fault", func() { m.Write64(0x6000, 1) }},
		{"second write fault", func() { m.Write64(0x7000, 1) }},
		{"write to a second sealed page", func() { m.Write64(0x2000, 3) }},
	}
	prev := s1
	for _, c := range changes {
		c.do()
		s := m.Snapshot()
		if s == prev {
			t.Fatalf("%s: capture is still the previous snapshot", c.name)
		}
		if m.Snapshot() != s {
			t.Fatalf("%s: back-to-back captures are two snapshots", c.name)
		}
		prev = s
	}
	// The page unsealed above is private now: writing it again changes
	// contents the next capture must see, through a new seal.
	m.Write64(0x1008, 8)
	if s := m.Snapshot(); s == prev || s.Peek(0x1008) != 8 || prev.Peek(0x1008) != 7 {
		t.Fatal("second write to a page missed by the next capture, or leaked into the previous one")
	}

	// Restore rebases: the memory is at s1 again, and says so.
	if err := m.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != s1 {
		t.Fatal("capture right after a restore is not the restored snapshot")
	}
	if v, _ := m.Read64(0x1008); v != 0 || m.Mapped(0x5000) || m.AllocatedPages() != 2 {
		t.Fatal("restore did not rewind the contents")
	}
	// Restoring where the memory already is keeps everything in place,
	// including after a detour through another snapshot.
	if err := m.Restore(s1); err != nil || m.Snapshot() != s1 {
		t.Fatalf("restore of the current snapshot: err=%v", err)
	}
	m.Write64(0x1000, 42)
	if err := m.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 1 {
		t.Fatalf("restore after a write kept the write: %d", v)
	}
	if err := m.Restore(prev); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1008); v != 0 || m.Snapshot() != s1 {
		t.Fatal("restore after a detour did not come back to the first snapshot")
	}
}

// TestSnapshotPartsWalk pins the accounting walk: the page table first,
// its pages only when the visitor asks for them, sizes that add up to
// the table plus whole pages, and page identities shared between
// snapshots exactly where the storage is.
func TestSnapshotPartsWalk(t *testing.T) {
	m := New(1 << 20)
	for a := uint64(0); a < 3*PageBytes; a += PageBytes {
		m.Write64(a, a)
	}
	s1 := m.Snapshot()
	m.Write64(0, 99) // copies page 0; pages 1 and 2 stay shared
	s2 := m.Snapshot()

	visits := 0
	s1.Parts(func(id any, bytes int64) bool {
		visits++
		if id != any(s1) || bytes < 3*16 {
			t.Fatalf("first part is %v (%d bytes), want the page table", id, bytes)
		}
		return false
	})
	if visits != 1 {
		t.Fatalf("declined page table still walked: %d visits", visits)
	}
	ids := func(s *Snapshot) (map[any]bool, int64) {
		seen := make(map[any]bool)
		var total int64
		s.Parts(func(id any, bytes int64) bool {
			seen[id] = true
			total += bytes
			return true
		})
		return seen, total
	}
	p1, n1 := ids(s1)
	p2, _ := ids(s2)
	if len(p1) != 4 || n1 < 3*PageBytes+3*16 || n1 > 3*PageBytes+256 {
		t.Fatalf("snapshot of 3 pages walks %d parts, %d bytes", len(p1), n1)
	}
	shared := 0
	for id := range p1 {
		if p2[id] {
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("%d parts shared between the snapshots, want the 2 unwritten pages", shared)
	}
}

func TestRestoreSpanMismatch(t *testing.T) {
	a, b := New(1<<16), New(1<<20)
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("restore with mismatched span must fail")
	}
}

func TestSpanRoundsUp(t *testing.T) {
	m := New(PageBytes + 1)
	if m.Span() != 2*PageBytes {
		t.Fatalf("span = %d, want %d", m.Span(), 2*PageBytes)
	}
}

// TestRawAliasesPageTables pins the directory contract the
// interpreter's inlined memory fast path depends on: Raw returns the
// Memory's own directory for its whole lifetime, every empty region
// shares one leaf that never gains a page, and demand materialisation
// (which puts a fresh leaf in the sentinel's slot) and copy-on-write
// unsealing performed through the slow path are immediately visible
// through a directory taken earlier.
func TestRawAliasesPageTables(t *testing.T) {
	m := New((LeafPages + 4) * PageBytes)
	dir := m.Raw()
	if len(dir) != 2 {
		t.Fatalf("directory of %d leaves, want 2", len(dir))
	}
	if dir[0] != &emptyLeaf || dir[1] != &emptyLeaf {
		t.Fatal("untouched regions do not share the empty leaf")
	}

	// Materialisation through Write64 replaces the sentinel in place.
	const vpn = LeafPages + 1
	if faulted := m.Write64(vpn*PageBytes+16, 0xfeed); !faulted {
		t.Fatal("first touch must fault")
	}
	if dir[1] == &emptyLeaf || dir[0] != &emptyLeaf {
		t.Fatal("materialisation invisible through the directory, or in the wrong slot")
	}
	if emptyLeaf != (Leaf{}) {
		t.Fatal("the shared empty leaf gained a page")
	}
	l := dir[1]
	if l.Pages[1] == nil || l.Pages[1][2] != 0xfeed {
		t.Fatal("materialised page or its word invisible through the directory")
	}

	// A direct store through the view is what Read64 sees.
	l.Pages[1][3] = 0xbeef
	if v, _ := m.Read64(vpn*PageBytes + 24); v != 0xbeef {
		t.Fatalf("Read64 after raw store = %#x, want 0xbeef", v)
	}

	// Snapshot seals shared pages in the leaf, and the copy-on-write
	// unseal swaps the page pointer in place.
	s := m.Snapshot()
	if !l.Sealed[1] {
		t.Fatal("seal invisible through the directory")
	}
	shared := l.Pages[1]
	if faulted := m.Write64(vpn*PageBytes+16, 0xcafe); faulted {
		t.Fatal("write to a mapped sealed page must not fault")
	}
	if l.Sealed[1] {
		t.Fatal("unseal invisible through the directory")
	}
	if l.Pages[1] == shared {
		t.Fatal("copy-on-write did not replace the page pointer")
	}
	if shared[2] != 0xfeed {
		t.Fatal("snapshot's sealed page was mutated")
	}

	// Restore keeps the directory and its leaves and re-seals in place.
	if err := m.Restore(s); err != nil {
		t.Fatal(err)
	}
	if again := m.Raw(); &again[0] != &dir[0] || len(again) != len(dir) || dir[1] != l {
		t.Fatal("directory or leaf replaced over the memory's lifetime")
	}
	if l.Pages[1] != shared || !l.Sealed[1] {
		t.Fatal("restore invisible through the directory")
	}
}

// TestDigestAllocsIndependentOfPages holds Digest's allocations to a
// per-call constant: the word stream must not allocate per page.
func TestDigestAllocsIndependentOfPages(t *testing.T) {
	allocs := func(pages int) float64 {
		m := New(1 << 30)
		for p := 0; p < pages; p++ {
			// Every 3rd page, so the pages span several leaves.
			m.Write64(uint64(p)*3*PageBytes, uint64(p)+1)
		}
		return testing.AllocsPerRun(20, func() { m.Digest() })
	}
	if one, many := allocs(1), allocs(256); one != many {
		t.Fatalf("Digest allocates %v times at 1 page, %v at 256", one, many)
	}
}
