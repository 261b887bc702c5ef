// Package device implements the peripheral models attached to the
// functional VM: a console and a block device. Device activity is what
// the paper's "I/O operations" metric observes, so the devices keep
// transfer statistics that the VM surfaces through its internal-stats
// interface.
package device

import (
	"hash/fnv"
	"sort"

	"repro/internal/mix"
)

// Console is a write-only character device. Output is counted, not
// stored, except for a small tail kept for tests and debugging.
type Console struct {
	BytesWritten uint64
	Writes       uint64
	tail         []byte
}

// tailCap bounds the retained output tail.
const tailCap = 4096

// Write records n bytes of console output, retaining at most the last
// tailCap bytes of data for inspection.
func (c *Console) Write(data []byte) {
	c.BytesWritten += uint64(len(data))
	c.Writes++
	c.tail = append(c.tail, data...)
	if len(c.tail) > tailCap {
		c.tail = c.tail[len(c.tail)-tailCap:]
	}
}

// Tail returns the retained output tail.
func (c *Console) Tail() []byte { return c.tail }

// Clone returns a deep copy (for VM snapshots).
func (c *Console) Clone() *Console {
	cp := *c
	cp.tail = append([]byte(nil), c.tail...)
	return &cp
}

// SectorWords is the size of one block-device sector in 64-bit words
// (512 bytes, the classic sector size).
const SectorWords = 64

// SectorBytes is the sector size in bytes.
const SectorBytes = SectorWords * 8

// Block is an in-memory block device. Sectors never written by the guest
// read back deterministic pseudo-random content derived from the device
// seed — this stands in for the benchmark "reference input" files the
// paper's workloads read from disk.
type Block struct {
	Seed         uint64
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	dirty        map[uint64]*[SectorWords]uint64
}

// NewBlock creates a block device whose unwritten content is derived
// from seed.
func NewBlock(seed uint64) *Block {
	return &Block{Seed: seed}
}

// ReadSector copies one sector into dst.
func (b *Block) ReadSector(sector uint64, dst *[SectorWords]uint64) {
	b.Reads++
	b.BytesRead += SectorBytes
	if s, ok := b.dirty[sector]; ok {
		*dst = *s
		return
	}
	// Unwritten sectors read as rows of the matrix b.Seed names.
	for i := range dst {
		dst[i] = mix.Entry(b.Seed, sector, uint64(i))
	}
}

// WriteSector stores one sector from src.
func (b *Block) WriteSector(sector uint64, src *[SectorWords]uint64) {
	b.Writes++
	b.BytesWritten += SectorBytes
	s, ok := b.dirty[sector]
	if !ok {
		if b.dirty == nil {
			b.dirty = make(map[uint64]*[SectorWords]uint64)
		}
		s = new([SectorWords]uint64)
		b.dirty[sector] = s
	}
	*s = *src
}

// DirtySectors returns the number of sectors the guest has written.
func (b *Block) DirtySectors() int { return len(b.dirty) }

// Digest returns an FNV-1a hash of the device-visible state: seed and
// the content of every guest-written sector (in sector order). Transfer
// counters are excluded — they are mirrored in the VM statistics and
// compared there.
func (b *Block) Digest() uint64 {
	h := fnv.New64a()
	w := mix.NewWriter(h)
	w.Words(b.Seed)
	sectors := make([]uint64, 0, len(b.dirty))
	for sec := range b.dirty {
		sectors = append(sectors, sec)
	}
	sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
	for _, sec := range sectors {
		w.Words(sec)
		w.Words(b.dirty[sec][:]...)
	}
	return h.Sum64()
}

// Clone returns a deep copy (for VM snapshots).
func (b *Block) Clone() *Block {
	cp := &Block{
		Seed: b.Seed, Reads: b.Reads, Writes: b.Writes,
		BytesRead: b.BytesRead, BytesWritten: b.BytesWritten,
	}
	if len(b.dirty) > 0 {
		cp.dirty = make(map[uint64]*[SectorWords]uint64, len(b.dirty))
	}
	for sec, s := range b.dirty {
		d := *s
		cp.dirty[sec] = &d
	}
	return cp
}
