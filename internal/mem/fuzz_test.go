package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// refMemory is FuzzMemoryMatchesReference's model of a Memory: a map
// from vpn to page contents, copied whole by every snapshot and
// restore, with no directory, leaves, seals or sharing.
type refMemory struct {
	span  uint64
	pages map[uint64]Page
}

func (r *refMemory) inSpan(addr uint64) bool { return addr>>PageShift < r.span/PageBytes }

func (r *refMemory) read(addr uint64) (uint64, bool) {
	p, ok := r.pages[addr>>PageShift]
	if !ok {
		r.pages[addr>>PageShift] = Page{}
	}
	return p[addr>>3&(WordsPerPage-1)], !ok
}

func (r *refMemory) write(addr, v uint64) bool {
	p, ok := r.pages[addr>>PageShift]
	p[addr>>3&(WordsPerPage-1)] = v
	r.pages[addr>>PageShift] = p
	return !ok
}

func (r *refMemory) peek(addr uint64) uint64 {
	p := r.pages[addr>>PageShift]
	return p[addr>>3&(WordsPerPage-1)]
}

func (r *refMemory) vpns() []uint64 {
	vpns := make([]uint64, 0, len(r.pages))
	for vpn := range r.pages {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	return vpns
}

// digest is Memory.Digest's byte stream written out independently:
// FNV-1a over each materialised page's vpn and words, ascending vpn.
func (r *refMemory) digest() uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 0x100000001b3
		}
	}
	for _, vpn := range r.vpns() {
		mix(vpn)
		for _, w := range r.pages[vpn] {
			mix(w)
		}
	}
	return h
}

// encode is Snapshot.EncodeTo's format written out independently.
func (r *refMemory) encode() []byte {
	var b bytes.Buffer
	word := func(v uint64) { binary.Write(&b, binary.LittleEndian, v) }
	word(r.span)
	word(uint64(len(r.pages)))
	for _, vpn := range r.vpns() {
		word(vpn)
		p := r.pages[vpn]
		binary.Write(&b, binary.LittleEndian, p[:])
	}
	return b.Bytes()
}

// fuzzSpans are the two address spaces the target runs on: one that
// ends mid-way through its only leaf and one that crosses into a third.
var fuzzSpans = [2]uint64{300 * PageBytes, (2*LeafPages + 7) * PageBytes}

// fuzzAddr picks an address from sel and word: a vpn at a leaf edge, at
// the span's end or one page past it (out of range, yet inside the last
// leaf when the span ends mid-leaf), or spread over the span, and one of
// the page's words, sometimes unaligned.
func fuzzAddr(span uint64, sel, word byte) uint64 {
	npages := span / PageBytes
	edges := []uint64{0, 1, LeafPages - 1, LeafPages, LeafPages + 1, 2 * LeafPages, npages - 1, npages}
	vpn := uint64(sel) * 37 % npages
	if int(sel%16) < len(edges) {
		vpn = edges[sel%16]
	}
	return vpn<<PageShift | uint64(word)*16 | uint64(word>>5)
}

// FuzzMemoryMatchesReference runs a byte-coded sequence of Read64,
// Write64, Peek, Snapshot and Restore (to any earlier snapshot) on a
// Memory and on refMemory, and after every operation compares the
// value, the fault flag (or the out-of-range panic), AllocatedPages and
// Digest, and that the shared empty leaf is still empty. At the end
// every snapshot taken must still encode to its reference's bytes, so
// no later write reached it.
func FuzzMemoryMatchesReference(f *testing.F) {
	f.Add(false, []byte{1, 0, 7, 1, 3, 9, 4, 0, 0, 1, 0, 8, 0, 1, 2, 5, 0, 0, 0, 0, 7, 2, 6, 1})
	f.Add(true, []byte{1, 3, 1, 2, 4, 2, 4, 0, 0, 2, 3, 5, 1, 5, 5, 4, 0, 0, 1, 7, 3, 5, 1, 0, 0, 3, 5, 3, 4, 4})
	f.Add(true, []byte{0, 7, 0, 2, 6, 0, 4, 0, 0, 1, 6, 1, 5, 0, 0, 3, 6, 9})
	f.Fuzz(func(t *testing.T, wide bool, ops []byte) {
		span := fuzzSpans[0]
		if wide {
			span = fuzzSpans[1]
		}
		ops = ops[:min(len(ops), 3*maxFuzzOps)]
		m, ref := New(span), &refMemory{span: span, pages: map[uint64]Page{}}
		var snaps []*Snapshot
		var refStates []map[uint64]Page
		for n := 0; len(ops) >= 3; n, ops = n+1, ops[3:] {
			op, addr := ops[0]%6, fuzzAddr(span, ops[1], ops[2])
			what := fmt.Sprintf("op %d (%d at %#x)", n, op, addr)
			switch op {
			case 0, 1, 2: // Read64, Write64 twice as often
				v := uint64(ops[1])<<32 | uint64(n)
				var got, want uint64
				var faulted, wantFault bool
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					if op == 0 {
						got, faulted = m.Read64(addr)
					} else {
						faulted = m.Write64(addr, v)
					}
					return false
				}()
				if !ref.inSpan(addr) {
					if !panicked {
						t.Fatalf("%s: access outside the span did not panic", what)
					}
					break
				}
				if panicked {
					t.Fatalf("%s: access inside the span panicked", what)
				}
				if op == 0 {
					want, wantFault = ref.read(addr)
				} else {
					wantFault = ref.write(addr, v)
				}
				if got != want || faulted != wantFault {
					t.Fatalf("%s: got %#x fault %v, want %#x fault %v", what, got, faulted, want, wantFault)
				}
			case 3:
				if got, want := m.Peek(addr), ref.peek(addr); got != want {
					t.Fatalf("%s: Peek %#x, want %#x", what, got, want)
				}
			case 4:
				snaps = append(snaps, m.Snapshot())
				refStates = append(refStates, maps.Clone(ref.pages))
			case 5:
				if len(snaps) == 0 {
					break
				}
				i := int(ops[1]) % len(snaps)
				if err := m.Restore(snaps[i]); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				ref.pages = maps.Clone(refStates[i])
			}
			if m.AllocatedPages() != len(ref.pages) {
				t.Fatalf("%s: %d pages allocated, want %d", what, m.AllocatedPages(), len(ref.pages))
			}
			if m.Digest() != ref.digest() {
				t.Fatalf("%s: digest differs from the reference", what)
			}
			if emptyLeaf != (Leaf{}) {
				t.Fatalf("%s: the shared empty leaf was written", what)
			}
		}
		for i, s := range snaps {
			var b bytes.Buffer
			if err := s.EncodeTo(&b); err != nil {
				t.Fatal(err)
			}
			if want := (&refMemory{span: span, pages: refStates[i]}).encode(); !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("snapshot %d changed after it was taken", i)
			}
		}
	})
}

// maxFuzzOps bounds one input's operations: every one digests the
// whole memory twice.
const maxFuzzOps = 48
