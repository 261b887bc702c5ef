// Package asm is the program builder used to generate guest machine code.
//
// It plays the role of an assembler: a Builder accumulates instructions,
// supports forward label references with backpatching, and produces the
// encoded 64-bit words that are loaded into guest memory. All control flow
// in the ISA is PC-relative, so code assembled by a Builder is position
// independent as long as it only branches within itself — the synthetic
// workloads exploit this to stage kernel code in the data segment and copy
// it into the hot code region at phase transitions (self-modifying code,
// which exercises the VM's translation-cache invalidation path).
package asm

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/isa"
	"repro/internal/mix"
)

// Builder assembles a contiguous run of instructions starting at Base.
type Builder struct {
	base   uint64
	insts  []isa.Inst
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	index int    // instruction to patch
	label string // target label
}

// NewBuilder returns a Builder assembling at the given base address,
// which must be 8-byte aligned.
func NewBuilder(base uint64) *Builder {
	if base%isa.InstBytes != 0 {
		panic(fmt.Sprintf("asm: misaligned code base %#x", base))
	}
	return &Builder{base: base, labels: make(map[string]int)}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return b.base + uint64(len(b.insts))*isa.InstBytes }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// Label defines a label at the current PC. Defining the same label twice
// panics: label names must be unique within a Builder.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("asm: duplicate label " + name)
	}
	b.labels[name] = len(b.insts)
}

// Emit appends a fully formed instruction.
func (b *Builder) Emit(i isa.Inst) {
	isa.MustValid(i)
	b.insts = append(b.insts, i)
}

// R emits a three-register instruction.
func (b *Builder) R(op isa.Op, rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// I emits a register-immediate instruction.
func (b *Builder) I(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// Halt emits a halt.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Sys emits a system call.
func (b *Builder) Sys(n int32) { b.Emit(isa.Inst{Op: isa.OpSys, Imm: n}) }

// Movi loads a 64-bit constant into rd using MOVI (and MOVHI when the
// value does not fit in a sign-extended 32-bit immediate). It emits one
// or two instructions.
func (b *Builder) Movi(rd uint8, v int64) {
	lo := int32(v)
	if int64(lo) == v {
		b.I(isa.OpMovi, rd, 0, lo)
		return
	}
	// MOVI sign-extends; clear the upper half first by loading the low
	// 32 bits zero-extended, then OR in the high half.
	b.I(isa.OpMovi, rd, 0, int32(uint32(v)))
	if lo < 0 {
		// MOVI left the top 32 bits set; clear them with a shift pair.
		b.I(isa.OpSlli, rd, rd, 32)
		b.I(isa.OpSrli, rd, rd, 32)
	}
	b.I(isa.OpMovhi, rd, 0, int32(uint32(v>>32)))
}

// Ld emits rd = mem64[rs1+off].
func (b *Builder) Ld(rd, rs1 uint8, off int32) {
	b.Emit(isa.Inst{Op: isa.OpLd, Rd: rd, Rs1: rs1, Imm: off})
}

// St emits mem64[rs1+off] = rs2.
func (b *Builder) St(rs2, rs1 uint8, off int32) {
	b.Emit(isa.Inst{Op: isa.OpSt, Rs1: rs1, Rs2: rs2, Imm: off})
}

// Br emits a conditional branch to a label (forward or backward).
func (b *Builder) Br(op isa.Op, rs1, rs2 uint8, label string) {
	if op.Class() != isa.ClassBranch {
		panic(fmt.Sprintf("asm: %v is not a branch", op))
	}
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.insts = append(b.insts, isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.insts = append(b.insts, isa.Inst{Op: isa.OpJmp})
}

// Jal emits a call to a label, linking into rd.
func (b *Builder) Jal(rd uint8, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.insts = append(b.insts, isa.Inst{Op: isa.OpJal, Rd: rd})
}

// Jalr emits an indirect jump to rs1+off, linking into rd.
func (b *Builder) Jalr(rd, rs1 uint8, off int32) {
	b.Emit(isa.Inst{Op: isa.OpJalr, Rd: rd, Rs1: rs1, Imm: off})
}

// Addr returns the resolved address of a label. It panics if the label is
// undefined, so call it only after the label's Label().
func (b *Builder) Addr(label string) uint64 {
	idx, ok := b.labels[label]
	if !ok {
		panic("asm: undefined label " + label)
	}
	return b.base + uint64(idx)*isa.InstBytes
}

// Words resolves all fixups and returns the encoded instruction stream.
func (b *Builder) Words() []uint64 {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			panic("asm: undefined label " + f.label)
		}
		// Branch semantics: target = pc + imm, where pc is the branch's
		// own address.
		off := int64(idx-f.index) * isa.InstBytes
		if off != int64(int32(off)) {
			panic("asm: branch offset overflow to " + f.label)
		}
		b.insts[f.index].Imm = int32(off)
		isa.MustValid(b.insts[f.index])
	}
	b.fixups = b.fixups[:0]
	words := make([]uint64, len(b.insts))
	for i, in := range b.insts {
		words[i] = isa.Encode(in)
	}
	return words
}

// Segment is a run of initialised 64-bit words at a guest address.
type Segment struct {
	Base  uint64
	Words []uint64
}

// Image is a loadable guest program.
type Image struct {
	Entry    uint64
	Segments []Segment
}

// AddSegment appends a segment to the image.
func (im *Image) AddSegment(base uint64, words []uint64) {
	im.Segments = append(im.Segments, Segment{Base: base, Words: words})
}

// Digest returns an FNV-1a hash of the image: entry point plus every
// segment's base and words, in segment order. Two images digest equally
// iff they load identical guest state, so the checkpoint store uses
// this as the workload-identity component of its keys.
func (im *Image) Digest() uint64 {
	h := fnv.New64a()
	w := mix.NewWriter(h)
	w.Words(im.Entry)
	for _, s := range im.Segments {
		w.Words(s.Base, uint64(len(s.Words)))
		w.Words(s.Words...)
	}
	return h.Sum64()
}

// Bytes returns the total initialised size of the image in bytes.
func (im *Image) Bytes() uint64 {
	var n uint64
	for _, s := range im.Segments {
		n += uint64(len(s.Words)) * 8
	}
	return n
}

// DataSeg is a bump allocator for the guest data segment with named
// symbols and initialised words.
type DataSeg struct {
	base    uint64
	cur     uint64
	symbols map[string]uint64
	init    map[uint64]uint64
}

// NewDataSeg returns a data segment allocator starting at base.
func NewDataSeg(base uint64) *DataSeg {
	return &DataSeg{
		base:    base,
		cur:     base,
		symbols: make(map[string]uint64),
		init:    make(map[uint64]uint64),
	}
}

// Alloc reserves size bytes aligned to align and names the region.
func (d *DataSeg) Alloc(name string, size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic("asm: alignment must be a power of two")
	}
	d.cur = (d.cur + align - 1) &^ (align - 1)
	if _, dup := d.symbols[name]; dup {
		panic("asm: duplicate data symbol " + name)
	}
	addr := d.cur
	d.symbols[name] = addr
	d.cur += size
	return addr
}

// Addr returns the address of a named region.
func (d *DataSeg) Addr(name string) uint64 {
	a, ok := d.symbols[name]
	if !ok {
		panic("asm: undefined data symbol " + name)
	}
	return a
}

// SetWord records an initial value for the 8-byte word at addr.
func (d *DataSeg) SetWord(addr, v uint64) { d.init[addr&^7] = v }

// End returns the first address past the allocated data.
func (d *DataSeg) End() uint64 { return d.cur }

// Segments converts the initialised words into image segments (one word
// per address, in address order; the VM loader populates them
// individually, and untouched words remain demand-zero).
func (d *DataSeg) Segments() []Segment {
	addrs := make([]uint64, 0, len(d.init))
	for addr := range d.init {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	segs := make([]Segment, 0, len(addrs))
	for _, addr := range addrs {
		segs = append(segs, Segment{Base: addr, Words: []uint64{d.init[addr]}})
	}
	return segs
}
