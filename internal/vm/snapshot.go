package vm

import (
	"fmt"
	"slices"
	"sort"
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
// previous capture or restore: the memory image (mem), the TLB
// contents (tlb) and the block list (blocks) may be the very same
// storage in many snapshots, in several store entries, and behind
// several machines' sharedParts at once. Nothing reachable from a
// Snapshot is ever written after capture; a machine copies before it
// changes anything (its TLB array is always private, guest pages are
// copy-on-write, decoded instructions are immutable).
type Snapshot struct {
	regs     [isa.NumRegs]uint64
	pc       uint64
	halted   bool
	exitCode uint64
	stats    Stats
	mem      *mem.Snapshot
	tlb      []uint64
	console  *device.Console
	disk     *device.Block
	phaseLog []PhaseMark
	blocks   []savedBlock // ascending pc
	// tcStamp is the translation-set identity the blocks were captured
	// under (see Machine.tcStamp). Deserialized snapshots carry zero,
	// which no live machine ever holds, so they always rebuild.
	tcStamp uint64
}

// sharedParts are the immutable slices of the snapshot a machine last
// captured or was restored from, each with the witness under which it
// still describes the machine: blocks while tcStamp has not moved, tlb
// while no refill has been counted (tlbRefill is the TLB's only writer
// and counts every write). The next Snapshot reuses what still holds;
// Restore skips what is already in place. The memory image has the same
// arrangement inside mem.Memory.
type sharedParts struct {
	blocks      []savedBlock
	blocksStamp uint64
	tlb         []uint64
	tlbRefills  uint64
}

// Snapshot captures the machine state, sharing with the machine's
// previous capture or restore every part that has not changed since.
func (m *Machine) Snapshot() *Snapshot {
	sh := &m.shared
	if sh.blocksStamp != m.tcStamp {
		blocks := make([]savedBlock, 0, m.tcCount)
		for pc, b := range m.tc {
			if !b.dead {
				blocks = append(blocks, savedBlock{pc: pc, insts: b.insts})
			}
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].pc < blocks[j].pc })
		sh.blocks, sh.blocksStamp = blocks, m.tcStamp
	}
	// Refills that evicted each other can leave the contents as they
	// were; comparing 8 kB is far cheaper than keeping another copy.
	if sh.tlb == nil || sh.tlbRefills != m.stats.TLBRefills && !slices.Equal(sh.tlb, m.tlb) {
		sh.tlb = slices.Clone(m.tlb)
	}
	sh.tlbRefills = m.stats.TLBRefills
	return &Snapshot{
		regs:     m.regs,
		pc:       m.pc,
		halted:   m.halted,
		exitCode: m.exitCode,
		stats:    m.stats,
		mem:      m.mem.Snapshot(),
		tlb:      sh.tlb,
		console:  m.console.Clone(),
		disk:     m.disk.Clone(),
		phaseLog: append([]PhaseMark(nil), m.phaseLog...),
		blocks:   sh.blocks,
		tcStamp:  m.tcStamp,
	}
}

// Instructions returns the guest instruction count at the snapshot
// point; the checkpoint store keys on it.
func (s *Snapshot) Instructions() uint64 { return s.stats.Instructions }

// Stats returns the machine statistics at the snapshot point.
func (s *Snapshot) Stats() Stats { return s.stats }

// Halted reports whether the guest had halted at the snapshot point.
func (s *Snapshot) Halted() bool { return s.halted }

// Parts reports the snapshot's separately allocated pieces by identity
// and size: the snapshot's own state (struct, phase log, console tail,
// dirty disk sectors), its TLB contents, its block list, then the
// memory image's page table and pages (see mem.Snapshot.Parts, which
// visit's result steers). The checkpoint store counts references per
// identity, so a piece shared by many snapshots is charged once.
// Decoded instructions are left out: the block list only points at
// storage that belongs to the machines' translation caches.
func (s *Snapshot) Parts(visit func(id any, bytes int64) bool) {
	own := int64(unsafe.Sizeof(*s)) +
		int64(len(s.phaseLog))*int64(unsafe.Sizeof(PhaseMark{})) +
		int64(unsafe.Sizeof(*s.console)) + int64(len(s.console.Tail())) +
		int64(unsafe.Sizeof(*s.disk)) + int64(s.disk.DirtySectors())*(device.SectorBytes+16)
	visit(s, own)
	visit(unsafe.SliceData(s.tlb), int64(len(s.tlb))*8)
	visit(unsafe.SliceData(s.blocks), int64(len(s.blocks))*int64(unsafe.Sizeof(savedBlock{})))
	s.mem.Parts(visit)
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
// The TLB is reallocated to the snapshot's geometry (a plain copy would
// silently truncate when the machine was configured with a different
// TLBEntries than the snapshotted one, leaving a hybrid TLB state no
// real execution could produce). Blocks from a deserialized snapshot
// are re-decoded against the snapshot's own memory image before any
// machine state is mutated, so a corrupt snapshot is rejected whole.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.tlb) == 0 || len(s.tlb)&(len(s.tlb)-1) != 0 {
		return fmt.Errorf("vm: snapshot TLB size %d is not a power of two", len(s.tlb))
	}
	// When the machine's live translation set is the one the snapshot
	// captured (stamps match — neither side has translated, invalidated,
	// or flushed since they last agreed), the entire rebuild is skipped:
	// the existing blocks, page indexes, and chain links are already
	// exactly the restored state. This is what makes a checkpoint-walk
	// restore cheaper than re-executing the interval it skips.
	tcSame := s.tcStamp != 0 && s.tcStamp == m.tcStamp
	// Snapshots deposited by a live machine share their decoded
	// translations; for those the live set can be reconciled in place
	// (delta kills and installs, no teardown). Deserialized snapshots
	// carry pc-only blocks and take the full rebuild below.
	reconcile := !tcSame
	if reconcile {
		for _, sb := range s.blocks {
			if sb.insts == nil {
				reconcile = false
				break
			}
		}
	}
	var rebuilt []*block
	if !tcSame && !reconcile {
		rebuilt = make([]*block, 0, len(s.blocks))
		for _, sb := range s.blocks {
			insts := sb.insts
			if insts == nil {
				var err error
				insts, err = decodeInsts(s.mem.Peek, sb.pc, m.cfg.MaxBlockLen)
				if err != nil {
					return fmt.Errorf("vm: snapshot block at pc=%#x: %w", sb.pc, err)
				}
			}
			rebuilt = append(rebuilt, &block{pc: sb.pc, insts: insts})
		}
	}
	if err := m.mem.Restore(s.mem); err != nil {
		return err
	}
	// The TLB is already the snapshot's when the snapshot's contents are
	// the storage this machine last agreed with and it has counted no
	// refill since; the fast paths in front of it then still hold too.
	sh := &m.shared
	if unsafe.SliceData(s.tlb) != unsafe.SliceData(sh.tlb) || m.stats.TLBRefills != sh.tlbRefills {
		m.tlb = append(m.tlb[:0], s.tlb...)
		m.tlbMask = uint64(len(m.tlb) - 1)
		// The last-vpn and second-level fast paths must not claim hits
		// against the restored TLB contents on stale evidence; dropping
		// them costs at most one masked probe per page and never changes
		// statistics (they only ever skip probes that are guaranteed hits).
		m.tlbLast = 0
		for i := range m.tlbL2 {
			m.tlbL2[i] = 0
		}
		sh.tlb = s.tlb
	}
	sh.tlbRefills = s.stats.TLBRefills
	m.regs = s.regs
	m.pc = s.pc
	m.halted = s.halted
	m.exitCode = s.exitCode
	m.stats = s.stats
	m.console = s.console.Clone()
	m.disk = s.disk.Clone()
	m.phaseLog = append(m.phaseLog[:0], s.phaseLog...)
	if s.tcStamp != 0 {
		// Every path below leaves the machine holding exactly s.blocks
		// under s.tcStamp.
		sh.blocks, sh.blocksStamp = s.blocks, s.tcStamp
	}

	if tcSame {
		return nil
	}
	if reconcile {
		m.reconcileTC(s)
		m.tcStamp = s.tcStamp
		return nil
	}
	// Silently replace the translation cache with the captured set.
	for _, b := range m.tc {
		b.dead = true
	}
	m.tc = make(map[uint64]*block, len(rebuilt))
	for vpn := range m.pageBlk {
		m.codePages[vpn] = false
	}
	m.pageBlk = make(map[uint64][]*block, len(rebuilt))
	m.tcCount = 0
	for _, b := range rebuilt {
		m.installBlock(b)
	}
	if s.tcStamp != 0 {
		m.tcStamp = s.tcStamp
	} else {
		// Deserialized snapshot: adopt a fresh identity for the set we
		// just installed.
		m.tcStamp = newTCStamp()
	}
	return nil
}

// reconcileTC updates the live translation set in place to exactly the
// snapshot's captured set, killing live blocks the snapshot lacks and
// installing the ones it adds. Identity is the shared decoded-
// instruction storage, so a retranslated block at the same pc is
// correctly replaced. Dead entries may linger in the map and the page
// lists, exactly as they do on an organically-run machine; they are
// invisible to lookups and to every statistic.
func (m *Machine) reconcileTC(s *Snapshot) {
	liveBefore := m.tcCount
	matched := 0
	for _, sb := range s.blocks {
		if b, ok := m.tc[sb.pc]; ok && !b.dead {
			if len(b.insts) == len(sb.insts) && &b.insts[0] == &sb.insts[0] {
				matched++
				continue
			}
			b.dead = true
			m.tcCount--
		}
		m.installBlock(&block{pc: sb.pc, insts: sb.insts})
	}
	if liveBefore == matched {
		return
	}
	// Live blocks remain that the snapshot does not contain.
	for pc, b := range m.tc {
		if b.dead {
			continue
		}
		i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].pc >= pc })
		if i < len(s.blocks) && s.blocks[i].pc == pc &&
			len(b.insts) == len(s.blocks[i].insts) && &b.insts[0] == &s.blocks[i].insts[0] {
			continue
		}
		b.dead = true
		delete(m.tc, pc)
		m.tcCount--
	}
}
