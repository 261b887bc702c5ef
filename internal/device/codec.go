package device

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/mix"
)

// The encode/decode helpers below serialise device state for the VM's
// snapshot format (see internal/vm). They live here because the
// retained console tail and the block device's dirty-sector map are
// unexported. All encodings are little-endian and deterministic (dirty
// sectors are written in ascending order).

// maxDirtySectors bounds how many dirty sectors a decoded block device
// may claim (64 Ki sectors = 32 MiB of guest writes, far above any
// generated workload).
const maxDirtySectors = 1 << 16

// EncodeTo writes the console state: counters, then the retained tail.
func (c *Console) EncodeTo(w io.Writer) error {
	if err := mix.NewWriter(w).Words(c.BytesWritten, c.Writes, uint64(len(c.tail))); err != nil {
		return err
	}
	_, err := w.Write(c.tail)
	return err
}

// DecodeConsole reads a console written by EncodeTo.
func DecodeConsole(r io.Reader) (*Console, error) {
	var buf [24]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("device: console header: %w", err)
	}
	c := &Console{
		BytesWritten: binary.LittleEndian.Uint64(buf[0:8]),
		Writes:       binary.LittleEndian.Uint64(buf[8:16]),
	}
	n := binary.LittleEndian.Uint64(buf[16:24])
	if n > tailCap {
		return nil, fmt.Errorf("device: console tail length %d exceeds cap %d", n, tailCap)
	}
	if n > 0 {
		c.tail = make([]byte, n)
		if _, err := io.ReadFull(r, c.tail); err != nil {
			return nil, fmt.Errorf("device: console tail: %w", err)
		}
	}
	return c, nil
}

// EncodeTo writes the block-device state: seed, transfer counters, and
// every dirty sector in ascending sector order.
func (b *Block) EncodeTo(w io.Writer) error {
	x := mix.NewWriter(w)
	if err := x.Words(b.Seed, b.Reads, b.Writes, b.BytesRead, b.BytesWritten, uint64(len(b.dirty))); err != nil {
		return err
	}
	sectors := make([]uint64, 0, len(b.dirty))
	for sec := range b.dirty {
		sectors = append(sectors, sec)
	}
	sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
	for _, s := range sectors {
		if err := x.Words(s); err != nil {
			return err
		}
		if err := x.Words(b.dirty[s][:]...); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBlock reads a block device written by EncodeTo.
func DecodeBlock(r io.Reader) (*Block, error) {
	var buf [48]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("device: block header: %w", err)
	}
	b := &Block{
		Seed:         binary.LittleEndian.Uint64(buf[0:8]),
		Reads:        binary.LittleEndian.Uint64(buf[8:16]),
		Writes:       binary.LittleEndian.Uint64(buf[16:24]),
		BytesRead:    binary.LittleEndian.Uint64(buf[24:32]),
		BytesWritten: binary.LittleEndian.Uint64(buf[32:40]),
	}
	n := binary.LittleEndian.Uint64(buf[40:48])
	if n > maxDirtySectors {
		return nil, fmt.Errorf("device: block claims %d dirty sectors (cap %d)", n, maxDirtySectors)
	}
	if n > 0 {
		b.dirty = make(map[uint64]*[SectorWords]uint64, n)
	}
	var sec [8 + SectorBytes]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, sec[:]); err != nil {
			return nil, fmt.Errorf("device: block sector %d: %w", i, err)
		}
		s := binary.LittleEndian.Uint64(sec[0:8])
		if _, dup := b.dirty[s]; dup {
			return nil, fmt.Errorf("device: block sector %d duplicated", s)
		}
		data := new([SectorWords]uint64)
		for j := range data {
			data[j] = binary.LittleEndian.Uint64(sec[8+j*8:])
		}
		b.dirty[s] = data
	}
	return b, nil
}
