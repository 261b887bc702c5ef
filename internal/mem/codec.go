package mem

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/mix"
)

// maxSpanBytes bounds the address-space size a decoded snapshot may
// claim, so a corrupt length field cannot trigger a huge allocation.
const maxSpanBytes = 1 << 40

// NumPages returns the number of materialised pages in the snapshot.
func (s *Snapshot) NumPages() int { return len(s.pages) }

// Peek reads a word from the snapshot without touching any Memory;
// unmaterialised addresses read as zero. The VM uses it to re-decode
// translation-cache blocks from a deserialized snapshot before the
// snapshot is committed to a machine.
func (s *Snapshot) Peek(addr uint64) uint64 {
	vpn := addr >> PageShift
	i := sort.Search(len(s.pages), func(i int) bool { return s.pages[i].vpn >= vpn })
	if i == len(s.pages) || s.pages[i].vpn != vpn {
		return 0
	}
	return s.pages[i].pg[addr>>3&(WordsPerPage-1)]
}

// EncodeTo writes the snapshot in the deterministic binary form
// consumed by DecodeSnapshot: span, page count, then each materialised
// page (ascending vpn) as vpn followed by its words, all little-endian.
func (s *Snapshot) EncodeTo(w io.Writer) error {
	x := mix.NewWriter(w)
	if err := x.Words(s.spanBytes, uint64(len(s.pages))); err != nil {
		return err
	}
	for _, e := range s.pages {
		if err := x.Words(e.vpn); err != nil {
			return err
		}
		if err := x.Words(e.pg[:]...); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSnapshot reads a snapshot written by EncodeTo. Every length is
// bounds-checked so truncated or corrupt input yields an error, never a
// panic or an oversized allocation.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var buf [16]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("mem: snapshot header: %w", err)
	}
	span := binary.LittleEndian.Uint64(buf[0:8])
	n := binary.LittleEndian.Uint64(buf[8:16])
	if span == 0 || span > maxSpanBytes || span%PageBytes != 0 {
		return nil, fmt.Errorf("mem: implausible snapshot span %d", span)
	}
	if n > span/PageBytes {
		return nil, fmt.Errorf("mem: snapshot claims %d pages for span %d", n, span)
	}
	s := &Snapshot{spanBytes: span, pages: make([]pageEntry, 0, n)}
	var page [8 + PageBytes]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, page[:]); err != nil {
			return nil, fmt.Errorf("mem: snapshot page %d: %w", i, err)
		}
		vpn := binary.LittleEndian.Uint64(page[0:8])
		if vpn >= span/PageBytes {
			return nil, fmt.Errorf("mem: snapshot page vpn %d out of span", vpn)
		}
		// The format writes pages ascending by vpn; anything else (or a
		// duplicate) is corruption.
		if len(s.pages) > 0 && vpn <= s.pages[len(s.pages)-1].vpn {
			return nil, fmt.Errorf("mem: snapshot page vpn %d out of order", vpn)
		}
		pg := new(Page)
		for j := range pg {
			pg[j] = binary.LittleEndian.Uint64(page[8+j*8:])
		}
		s.pages = append(s.pages, pageEntry{vpn: vpn, pg: pg})
	}
	return s, nil
}
