package vm

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/mem"
)

// savedBlock is one captured translation-cache entry. insts is shared
// with the live machine's block (decoded instructions are immutable
// after translation); snapshots read back from their serialized form
// carry only the PC and re-decode from the restored memory image.
type savedBlock struct {
	pc    uint64
	insts []dinst
}

// codePage is the captured blocks that start on one code page,
// ascending by pc. Decoding stops at the page end, so a page's list
// changes only through translations and invalidations on that page (or
// on the next, for a last instruction that straddles into it).
type codePage struct {
	vpn    uint64
	blocks []savedBlock
}

// tlbLineLen is how many TLB entries a snapshot shares as one piece.
// Consecutive captures differ in a handful of slots, so few lines copy;
// a 1 024-entry TLB's table of 64 line pointers stays cheap to copy and
// for the collector to scan, where 8-entry lines' 128 were not.
const tlbLineLen = 16

// tlbLine is one immutable line of captured TLB entries. The lines one
// capture adds are one allocation, the batch Parts reports: this line
// is its idx-th of n. Offsets, not a pointer to the batch, keep lines
// free of pointers, so the collector never scans them.
type tlbLine struct {
	entries [tlbLineLen]uint64
	idx, n  int32
}

// zeroTLBLine is the all-invalid line every snapshot shares.
var zeroTLBLine tlbLine

// tlbSlice is line i of a TLB's entries.
func tlbSlice(tlb []uint64, i int) []uint64 {
	return tlb[i*tlbLineLen : min((i+1)*tlbLineLen, len(tlb))]
}

// linesOf returns a fresh line table of a TLB's entries.
func linesOf(tlb []uint64) []*tlbLine {
	zero := make([]*tlbLine, (len(tlb)+tlbLineLen-1)/tlbLineLen)
	for i := range zero {
		zero[i] = &zeroTLBLine
	}
	return relined(zero, tlb, nil)
}

// relined returns table with one new batch of lines in place of every
// line of tlb that differs from table's, looking only where dirty is
// set unless dirty is nil; table itself when no line differs.
func relined(table []*tlbLine, tlb []uint64, dirty []bool) []*tlbLine {
	var buf [32]int
	changed := buf[:0]
	for i := range table {
		// Refills that evicted each other can leave a line as it was.
		if live := tlbSlice(tlb, i); (dirty == nil || dirty[i]) && !slices.Equal(live, table[i].entries[:len(live)]) {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		return table
	}
	table = slices.Clone(table)
	lines := slices.Grow([]tlbLine(nil), len(changed))[:len(changed)]
	for j, i := range changed {
		copy(lines[j].entries[:], tlbSlice(tlb, i))
		lines[j].idx, lines[j].n = int32(j), int32(cap(lines))
		table[i] = &lines[j]
	}
	return table
}

// pagesOf groups blocks into code pages, one per run of blocks on the
// same page; ascending blocks give ascending pages.
func pagesOf(blocks []savedBlock) (table []codePage) {
	for i, b := range blocks {
		if n := len(table) - 1; n >= 0 && table[n].vpn == b.pc>>mem.PageShift {
			table[n].blocks = blocks[i-len(table[n].blocks) : i+1 : i+1]
		} else {
			table = append(table, codePage{vpn: b.pc >> mem.PageShift, blocks: blocks[i : i+1 : i+1]})
		}
	}
	return table
}

// Snapshot is a restorable copy of the complete machine state,
// including the set of live translation-cache blocks. Capturing the TC
// makes a restore *stats-exact*: Dynamic Sampling monitors the
// translation-cache counters, so a checkpoint-resumed run must
// reproduce the exact counter trajectory of an uninterrupted run, which
// the previous flush-and-retranslate restore could not. Chain links are
// not captured — they are a host-side performance shortcut that never
// affects statistics — and re-form lazily after a restore.
//
// A snapshot owns its scalar state, console, disk and phase log, and
// shares by identity whatever the machine had not changed since its
// previous capture or restore: the memory image, the TLB line table and
// any of its lines, the code-page table and any page's block list may be
// the very same storage in many snapshots, store entries and machines.
// Nothing reachable from a Snapshot is ever written after capture; a
// machine copies before it changes anything (its TLB array is private,
// guest pages are copy-on-write, decoded instructions are immutable, a
// changed line or page list goes into a fresh table).
type Snapshot struct {
	regs       [isa.NumRegs]uint64
	pc         uint64
	halted     bool
	exitCode   uint64
	stats      Stats
	mem        *mem.Snapshot
	tlb        []*tlbLine // tlbEntries in lines
	tlbEntries int
	console    device.Console
	disk       *device.Block
	phaseLog   []PhaseMark
	code       []codePage // ascending vpn, no empty page
}

// sharedParts are the tables of the snapshot a machine last captured or
// was restored from, and what the machine changed since: the code pages
// in codeDirty (translate, invalidate and flush mark them, and they are
// the only record of a translation-cache change); no TLB line while no
// refill was counted since tlbRefills (tlbLookup is the TLB's only
// writer), else those in tlbDirty. Snapshot rebuilds and Restore
// reconciles or copies only those. The memory image has the same
// arrangement in mem.Memory.
type sharedParts struct {
	code       []codePage
	codeDirty  map[uint64]bool
	tlb        []*tlbLine
	tlbDirty   []bool
	tlbRefills uint64
}

// Snapshot captures the machine state, sharing with the machine's
// previous capture or restore every part that has not changed since.
func (m *Machine) Snapshot() *Snapshot {
	sh := &m.shared
	if len(sh.codeDirty) != 0 {
		sh.code = m.captureCode()
	}
	if sh.tlbRefills != m.stats.TLBRefills {
		sh.tlb = relined(sh.tlb, m.tlb, sh.tlbDirty)
		clear(sh.tlbDirty)
		sh.tlbRefills = m.stats.TLBRefills
	}
	return &Snapshot{
		regs:       m.regs,
		pc:         m.pc,
		halted:     m.halted,
		exitCode:   m.exitCode,
		stats:      m.stats,
		mem:        m.mem.Snapshot(),
		tlb:        sh.tlb,
		tlbEntries: len(m.tlb),
		console:    *m.console.Clone(),
		disk:       m.disk.Clone(),
		phaseLog:   append([]PhaseMark(nil), m.phaseLog...),
		code:       sh.code,
	}
}

// captureCode returns the code-page table of the live translation set:
// the agreed table with every changed page's list rebuilt.
func (m *Machine) captureCode() []codePage {
	sh := &m.shared
	table := slices.Clone(sh.code)
	for vpn := range sh.codeDirty {
		i, found := slices.BinarySearchFunc(table, vpn, byVPN)
		switch blocks := m.liveBlocks(vpn); {
		case found && blocks == nil:
			table = slices.Delete(table, i, i+1)
		case found:
			table[i].blocks = blocks
		case blocks != nil:
			table = slices.Insert(table, i, codePage{vpn: vpn, blocks: blocks})
		}
	}
	clear(sh.codeDirty)
	return table
}

func byVPN(p codePage, vpn uint64) int { return cmp.Compare(p.vpn, vpn) }

// liveBlocks returns the live blocks that start on code page vpn,
// ascending by pc, or nil when there are none.
func (m *Machine) liveBlocks(vpn uint64) []savedBlock {
	var blocks []savedBlock
	for _, b := range m.pageBlk[vpn] {
		if !b.dead && b.pc>>mem.PageShift == vpn {
			blocks = append(blocks, savedBlock{pc: b.pc, insts: b.insts})
		}
	}
	slices.SortFunc(blocks, func(a, b savedBlock) int { return cmp.Compare(a.pc, b.pc) })
	return slices.Clone(blocks) // snapshots keep it: no spare capacity
}

// Instructions returns the guest instruction count at the snapshot
// point; the checkpoint store keys on it.
func (s *Snapshot) Instructions() uint64 { return s.stats.Instructions }

// Parts reports the snapshot's separately allocated pieces by identity
// and size: its own state (struct, phase log, console tail, dirty disk
// sectors); the TLB line table and, if visit returned true for it, its
// lines' batches; the code-page table and, if visit returned true for
// it, its block lists; then the memory image's (see mem.Snapshot.Parts).
// The checkpoint store counts references per identity, so a piece shared
// by many snapshots is charged once, and a table it already counts is
// one more reference, not one per line or page. Decoded instructions are
// left out: they belong to the machines' translation caches.
func (s *Snapshot) Parts(visit func(id any, bytes int64) bool) {
	own := int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.phaseLog) + sliceBytes(s.console.Tail()) +
		int64(unsafe.Sizeof(*s.disk)) + int64(s.disk.DirtySectors())*(device.SectorBytes+16)
	visit(s, own)
	if visit(unsafe.SliceData(s.tlb), sliceBytes(s.tlb)) {
		var last *tlbLine // neighbours often share a batch
		for _, l := range s.tlb {
			b := (*tlbLine)(unsafe.Add(unsafe.Pointer(l), -int(l.idx)*int(unsafe.Sizeof(*l))))
			if l.n > 0 && b != last { // the zero line is in no batch
				visit(b, int64(l.n)*int64(unsafe.Sizeof(*l)))
				last = b
			}
		}
	}
	if visit(unsafe.SliceData(s.code), sliceBytes(s.code)) {
		for _, p := range s.code {
			visit(unsafe.SliceData(p.blocks), sliceBytes(p.blocks))
		}
	}
	s.mem.Parts(visit)
}

// sliceBytes is what the array behind s holds: its capacity, which
// append and slices.Grow round up to the allocation they really make.
func sliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}

// SizeBytes is the in-memory footprint of the snapshot taken alone,
// every part counted in full (page images dominate). What a snapshot
// adds to a store that already holds its neighbours is usually far
// less; the store accounts that through Parts.
func (s *Snapshot) SizeBytes() int64 {
	var size int64
	s.Parts(func(_ any, bytes int64) bool {
		size += bytes
		return true
	})
	return size
}

// Restore rewinds the machine to the snapshot, including statistics and
// the translation-cache block set. The TC rebuild is silent — no
// translation or invalidation counters move, because a restore is
// host-side machinery, not guest behaviour — which is what makes a
// checkpoint-resumed run's statistics bit-identical to a cold run that
// executed through the same point.
//
// The TLB takes the snapshot's geometry, masks included (a plain copy
// would silently truncate when the machine was configured with a
// different TLBEntries than the snapshotted one, leaving a hybrid TLB
// state no real execution could produce). Blocks from a deserialized
// snapshot are re-decoded against the snapshot's own memory image before
// any machine state is mutated, so a corrupt snapshot is rejected whole.
func (m *Machine) Restore(s *Snapshot) error {
	if s.tlbEntries == 0 || s.tlbEntries&(s.tlbEntries-1) != 0 {
		return fmt.Errorf("vm: snapshot TLB size %d is not a power of two", s.tlbEntries)
	}
	code := s.code
	if len(code) != 0 && code[0].blocks[0].insts == nil { // deserialized: pc-only blocks
		code = make([]codePage, len(s.code))
		for i, p := range s.code {
			code[i] = codePage{vpn: p.vpn, blocks: make([]savedBlock, len(p.blocks))}
			for j, sb := range p.blocks {
				insts, err := decodeInsts(s.mem.Peek, sb.pc, m.cfg.MaxBlockLen)
				if err != nil {
					return fmt.Errorf("vm: snapshot block at pc=%#x: %w", sb.pc, err)
				}
				code[i].blocks[j] = savedBlock{pc: sb.pc, insts: insts}
			}
		}
	}
	if err := m.mem.Restore(s.mem); err != nil {
		return err
	}
	m.restoreTLB(s)
	m.regs = s.regs
	m.pc = s.pc
	m.halted = s.halted
	m.exitCode = s.exitCode
	m.stats = s.stats
	m.console = s.console.Clone()
	m.disk = s.disk.Clone()
	m.phaseLog = append(m.phaseLog[:0], s.phaseLog...)

	// With no code page changed since the machine agreed with the very
	// table being restored (tables are never written after capture, so
	// identity is equality), the live set, chain links included, is
	// already the restored one: what makes a checkpoint-walk restore
	// cheaper than re-executing the interval it skips. Otherwise it is
	// reconciled in place; a re-decoded table is always a fresh one.
	if sh := &m.shared; len(sh.codeDirty) != 0 || len(code) != len(sh.code) ||
		unsafe.SliceData(code) != unsafe.SliceData(sh.code) {
		m.reconcileTC(code)
	}
	m.shared.code = code
	return nil
}

// restoreTLB makes the machine's TLB array the snapshot's, copying only
// the lines that differ from the ones the machine agrees with. It
// replaces m.tlb only when the snapshot's geometry differs.
func (m *Machine) restoreTLB(s *Snapshot) {
	sh := &m.shared
	if len(m.tlb) != s.tlbEntries {
		m.resizeTLB(s.tlbEntries)
	}
	// The TLB is already the snapshot's when the snapshot's line table
	// is the one this machine last agreed with and it has counted no
	// refill since.
	if unsafe.SliceData(s.tlb) != unsafe.SliceData(sh.tlb) || m.stats.TLBRefills != sh.tlbRefills {
		for i, l := range s.tlb {
			if l != sh.tlb[i] || sh.tlbDirty[i] {
				copy(m.tlb[i*tlbLineLen:], l.entries[:])
			}
		}
		clear(sh.tlbDirty)
		sh.tlb = s.tlb
	}
	sh.tlbRefills = s.stats.TLBRefills
}

// reconcileTC updates the live translation set in place to exactly the
// code pages want. A page whose list is the one the machine agrees with,
// and on which it has changed nothing since, is skipped; every other
// page either side holds code on is reconciled on its own.
func (m *Machine) reconcileTC(want []codePage) {
	sh := &m.shared
	for _, p := range want {
		if held := pageList(sh.code, p.vpn); sh.codeDirty[p.vpn] ||
			len(held) != len(p.blocks) || &held[0] != &p.blocks[0] {
			m.reconcilePage(p.vpn, p.blocks)
		}
	}
	for _, p := range sh.code {
		sh.codeDirty[p.vpn] = true
	}
	for vpn := range sh.codeDirty {
		if pageList(want, vpn) == nil {
			m.reconcilePage(vpn, nil)
		}
	}
	clear(sh.codeDirty)
}

// pageList returns the block list of page vpn in table, nil if the
// table has no code there.
func pageList(table []codePage, vpn uint64) []savedBlock {
	if i, ok := slices.BinarySearchFunc(table, vpn, byVPN); ok {
		return table[i].blocks
	}
	return nil
}

// reconcilePage makes the live blocks that start on page vpn exactly
// want (ascending by pc), killing live blocks want lacks and installing
// the ones it adds. Identity is the shared decoded-instruction storage,
// so a retranslated block at the same pc is correctly replaced. The
// page lists then drop their dead entries, as after an invalidation.
func (m *Machine) reconcilePage(vpn uint64, want []savedBlock) {
	for _, b := range m.pageBlk[vpn] {
		if b.dead || b.pc>>mem.PageShift != vpn {
			continue // a straddling block belongs to the page before
		}
		i, ok := slices.BinarySearchFunc(want, b.pc, func(sb savedBlock, pc uint64) int { return cmp.Compare(sb.pc, pc) })
		if ok && len(b.insts) == len(want[i].insts) && &b.insts[0] == &want[i].insts[0] {
			continue
		}
		b.dead = true
		delete(m.tc, b.pc)
		m.tcCount--
	}
	for _, sb := range want {
		if b, ok := m.tc[sb.pc]; ok && !b.dead {
			continue // the live block survived the kills above: it is sb
		}
		m.installBlock(&block{pc: sb.pc, insts: sb.insts})
	}
	m.compactPageBlk(vpn)
	m.compactPageBlk(vpn + 1)
}
