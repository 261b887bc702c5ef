package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mix"
)

// deepSnapshot is the reference capture: every part of the machine
// state copied afresh, nothing shared with the machine, with an earlier
// snapshot, or between two calls, and no side effect on the machine
// (the memory image is copied word by word through the raw page table,
// so not even a page is sealed). Machine.Snapshot may share whatever
// did not change; this one never does, and the two must serialize to
// the same bytes.
func deepSnapshot(t testing.TB, m *Machine) *Snapshot {
	t.Helper()
	blocks := make([]savedBlock, 0, m.tcCount)
	for pc, b := range m.tc {
		if !b.dead {
			blocks = append(blocks, savedBlock{pc: pc, insts: b.insts})
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].pc < blocks[j].pc })
	var code []codePage // one list per start page, pages ascending
	for _, b := range blocks {
		if n := len(code); n == 0 || code[n-1].vpn != b.pc>>mem.PageShift {
			code = append(code, codePage{vpn: b.pc >> mem.PageShift})
		}
		code[len(code)-1].blocks = append(code[len(code)-1].blocks, b)
	}
	tlb := make([]*tlbLine, (len(m.tlb)+tlbLineLen-1)/tlbLineLen)
	for i := range tlb {
		tlb[i] = &tlbLine{n: 1}
		copy(tlb[i].entries[:], m.tlb[i*tlbLineLen:])
	}

	// The memory image in mem.Snapshot's serialized form: span, page
	// count, then (vpn, words) ascending.
	var img bytes.Buffer
	word := func(v uint64) { binary.Write(&img, binary.LittleEndian, v) }
	word(m.mem.Span())
	word(uint64(m.mem.AllocatedPages()))
	for d, l := range m.mem.Raw() {
		for i, p := range l.Pages {
			if p != nil {
				word(uint64(d*mem.LeafPages + i))
				binary.Write(&img, binary.LittleEndian, p[:])
			}
		}
	}
	image, err := mem.DecodeSnapshot(&img)
	if err != nil {
		t.Fatalf("deepSnapshot: memory image: %v", err)
	}
	return &Snapshot{
		regs:       m.regs,
		pc:         m.pc,
		halted:     m.halted,
		exitCode:   m.exitCode,
		stats:      m.stats,
		mem:        image,
		tlb:        tlb,
		tlbEntries: len(m.tlb),
		console:    *m.console.Clone(),
		disk:       m.disk.Clone(),
		phaseLog:   append([]PhaseMark(nil), m.phaseLog...),
		code:       code,
	}
}

// encodeSnapshot returns the serialized payload of s: everything WriteTo
// emits except the digest footer, which is a function of these bytes.
// Two snapshots have equal payloads exactly when WriteTo gives them
// equal bytes; skipping the byte-wise hash keeps the comparisons cheap
// under the race detector.
func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Grow(s.mem.NumPages()*(mem.PageBytes+8) + 1<<12)
	if err := s.encodePayload(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reload passes s through its full serialized form, digest and all.
func reload(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// Guest layout of the generated sharing programs: code from shCode with
// the patch area and the first half of the straddling routine on the
// first code page, a 32-page demand-zero working set (small, so that
// the thousands of serialized images the test compares stay cheap), and
// an I/O buffer behind it. The 8-entry TLB makes pages 8 apart conflict.
const (
	shCode   = 0x10000
	shData   = 0x100000
	shSpan   = 0x20000
	shIOBuf  = shData + shSpan
	shTLB    = 8
	shStride = shTLB * mem.PageBytes
)

// Register roles in generated sharing programs (r1..r6 are work
// registers; r10..r12 carry syscall arguments).
const (
	shWork  = 6
	shBase  = 20
	shOuter = 21
	shAddr  = 22
	shVal   = 23
	shCount = 24
	shWalk  = 25 // working-set offset that advances every outer iteration
	shLR    = 31
)

// sharingProgram generates a guest in the style of check/gen.go (which
// this package cannot import): every outer iteration executes a patch
// area that self-modifying stores rewrite and a routine that straddles
// a page boundary (so its translation splits at the page end and a
// store to the patch area kills only the first half), then a random
// mix of ALU work, loads and stores over a demand-zero working set,
// runs of stores to TLB-conflicting pages, and the console, block,
// phase-mark and time syscalls.
func sharingProgram(seed uint64) *asm.Image {
	rng := mix.NewRNG(seed ^ 0x5ba12e_5eed)
	b := asm.NewBuilder(shCode)
	work := func() uint8 { return uint8(1 + rng.Intn(shWork)) }
	labels := 0
	label := func() string { labels++; return fmt.Sprintf("l%d", labels) }

	b.Label("patch")
	var slots []uint64
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		slots = append(slots, b.PC())
		b.I(isa.OpAddi, work(), work(), int32(1+rng.Intn(4)))
	}
	b.Jalr(0, shLR, 0)
	for b.PC() < shCode+mem.PageBytes-5*isa.InstBytes {
		b.Nop()
	}
	b.Label("straddle")
	for i := 0; i < 12; i++ {
		b.I(isa.OpAddi, work(), work(), int32(1+i))
	}
	b.Jalr(0, shLR, 0)

	b.Label("entry")
	b.I(isa.OpMovi, shBase, 0, shData)
	for r := uint8(1); r <= shWork; r++ {
		b.Movi(r, int64(rng.Next()))
	}
	b.I(isa.OpMovi, shOuter, 0, int32(60+rng.Intn(61)))
	b.Label("loop")
	b.Jal(shLR, "patch")
	b.Jal(shLR, "straddle")
	b.I(isa.OpAddi, shWalk, shWalk, 0x468) // fresh pages keep faulting in all run long
	wsAddr := func() {
		from := work()
		if rng.Intn(3) == 0 {
			from = shWalk
		}
		b.I(isa.OpAndi, shAddr, from, shSpan-8)
		b.R(isa.OpAdd, shAddr, shAddr, shBase)
	}
	for i, n := 0, 15+rng.Intn(26); i < n; i++ {
		switch rng.Pick([]int{20, 12, 12, 8, 8, 6, 3, 2, 2, 2, 2}) {
		case 0:
			b.R([]isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpXor, isa.OpOr}[rng.Intn(5)], work(), work(), work())
		case 1:
			wsAddr()
			b.Ld(work(), shAddr, int32(rng.Intn(64))*8)
		case 2:
			wsAddr()
			b.St(work(), shAddr, int32(rng.Intn(64))*8)
		case 3: // stores to pages that share one TLB slot
			l := label()
			b.I(isa.OpMovi, shAddr, 0, shData+int32(rng.Intn(shTLB))*mem.PageBytes)
			b.I(isa.OpMovi, shCount, 0, int32(2+rng.Intn(shSpan/shStride-1)))
			b.Label(l)
			b.St(work(), shAddr, 0)
			b.I(isa.OpAddi, shAddr, shAddr, shStride)
			b.I(isa.OpAddi, shCount, shCount, -1)
			b.Br(isa.OpBne, shCount, 0, l)
		case 4: // forward branch over a little work
			l := label()
			b.Br([]isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}[rng.Intn(4)], work(), work(), l)
			b.I(isa.OpAddi, work(), work(), int32(rng.Intn(100)))
			b.Label(l)
		case 5: // self-modifying store into a patch slot
			w := work()
			repl := isa.Inst{Op: isa.OpAddi, Rd: w, Rs1: w, Imm: int32(1 + rng.Intn(16))}
			if rng.Intn(3) == 0 {
				repl = isa.Inst{Op: isa.OpNop}
			}
			b.I(isa.OpMovi, shAddr, 0, int32(slots[rng.Intn(len(slots))]))
			b.Movi(shVal, int64(isa.Encode(repl)))
			b.St(shVal, shAddr, 0)
		case 6:
			b.I(isa.OpMovi, 10, 0, shData+int32(rng.Intn(shSpan/8))*8)
			b.I(isa.OpMovi, 11, 0, int32(8+8*rng.Intn(16)))
			b.Sys(isa.SysConsoleOut)
		case 7:
			b.I(isa.OpMovi, 10, 0, int32(rng.Intn(32)))
			b.I(isa.OpMovi, 11, 0, shIOBuf)
			b.I(isa.OpMovi, 12, 0, int32(1+rng.Intn(2)))
			b.Sys(isa.SysBlockRead)
		case 8:
			b.I(isa.OpMovi, 10, 0, int32(rng.Intn(32)))
			b.I(isa.OpMovi, 11, 0, shData+int32(rng.Intn(shSpan/8))*8)
			b.I(isa.OpMovi, 12, 0, 1)
			b.Sys(isa.SysBlockWrite)
		case 9:
			b.I(isa.OpMovi, 10, 0, int32(rng.Next()&0xffff))
			b.Sys(isa.SysPhaseMark)
		case 10:
			b.Sys(isa.SysTimeQuery)
		}
	}
	b.I(isa.OpAddi, shOuter, shOuter, -1)
	b.Br(isa.OpBne, shOuter, 0, "loop")
	b.I(isa.OpMovi, 10, 0, 7)
	b.Sys(isa.SysExit)

	img := &asm.Image{Entry: b.Addr("entry")}
	img.AddSegment(shCode, b.Words())
	return img
}

// sharingConfig alternates, by seed, between short blocks in a
// translation cache small enough to flush every iteration or two and
// the default geometry, which never flushes.
func sharingConfig(seed uint64) Config {
	cfg := Config{MemSpan: 1 << 21, TLBEntries: shTLB}
	if seed%2 == 1 {
		cfg.TCMaxBlocks, cfg.MaxBlockLen = 16, 8
	}
	return cfg
}

type discardSink struct{}

func (discardSink) OnEvents([]Event) {}

// requireSameMachine fails unless a and b hold the same guest-visible
// state, compared field by field — everything a snapshot serializes
// (registers, statistics, TLB contents, devices, phase log, the memory
// image word for word, the live block set) and the decoded contents of
// every live block.
func requireSameMachine(t *testing.T, when string, a, b *Machine) {
	t.Helper()
	switch {
	case a.regs != b.regs || a.pc != b.pc || a.halted != b.halted || a.exitCode != b.exitCode:
		t.Fatalf("%s: CPU state differs", when)
	case a.stats != b.stats:
		t.Fatalf("%s: statistics differ:\n a %+v\n b %+v", when, a.stats, b.stats)
	case !slices.Equal(a.tlb, b.tlb):
		t.Fatalf("%s: TLB contents differ", when)
	case !slices.Equal(a.phaseLog, b.phaseLog):
		t.Fatalf("%s: phase logs differ", when)
	case a.console.BytesWritten != b.console.BytesWritten || a.console.Writes != b.console.Writes ||
		!bytes.Equal(a.console.Tail(), b.console.Tail()):
		t.Fatalf("%s: consoles differ", when)
	case a.disk.Digest() != b.disk.Digest() || a.disk.Reads != b.disk.Reads || a.disk.Writes != b.disk.Writes ||
		a.disk.BytesRead != b.disk.BytesRead || a.disk.BytesWritten != b.disk.BytesWritten:
		t.Fatalf("%s: disks differ", when)
	case a.tcCount != b.tcCount:
		t.Fatalf("%s: %d live blocks against %d", when, a.tcCount, b.tcCount)
	}
	ad, bd := a.mem.Raw(), b.mem.Raw()
	for d := range ad {
		for i, ap := range ad[d].Pages {
			if bp := bd[d].Pages[i]; (ap == nil) != (bp == nil) || ap != nil && *ap != *bp {
				t.Fatalf("%s: guest page %#x differs", when, d*mem.LeafPages+i)
			}
		}
	}
	for pc, ab := range a.tc {
		if ab.dead {
			continue
		}
		bb, ok := b.tc[pc]
		if !ok || bb.dead || !slices.Equal(ab.insts, bb.insts) {
			t.Fatalf("%s: live block at pc=%#x differs", when, pc)
		}
	}
}

// TestSnapshotSharingIsInvisible drives two machines running one
// generated program in seeded random bursts (fast and event mode),
// interleaved with captures and with restores to earlier snapshots of
// either machine. Every capture must serialize to the reference
// capture's bytes; every restore must leave the machine equal to a
// fresh machine restored from the serialized snapshot, before and after
// both run on; and no snapshot's encoding may ever change after it was
// taken.
func TestSnapshotSharingIsInvisible(t *testing.T) {
	// Long bursts change everything between two captures; bursts of one
	// or two instructions change one thing at a time, which is what
	// catches a reuse condition with a missing witness.
	for seed := uint64(1); seed <= 20; seed++ {
		maxBurst := 300
		if seed > 10 {
			maxBurst = 2
		}
		t.Run(fmt.Sprintf("seed%d/burst%d", seed, maxBurst), func(t *testing.T) {
			cfg := sharingConfig(seed)
			img := sharingProgram(seed)
			rng := mix.NewRNG(seed)
			machines := [2]*Machine{New(cfg), New(cfg)}
			for _, m := range machines {
				m.Load(img)
			}
			var snaps []*Snapshot
			var encs [][]byte
			last := [2]int{-1, -1} // the snapshot each machine last captured or restored
			burst := func(ms ...*Machine) {
				n := uint64(1 + rng.Intn(maxBurst))
				var sink Sink
				if rng.Intn(2) == 0 {
					sink = discardSink{}
				}
				for _, m := range ms {
					m.Run(n, sink)
				}
			}
			unchanged := func(when string) {
				t.Helper()
				for i, s := range snaps {
					if !bytes.Equal(encodeSnapshot(t, s), encs[i]) {
						t.Fatalf("%s: snapshot %d no longer serializes to the bytes it was captured as", when, i)
					}
				}
			}
			var captures, restores int
			for step := 0; step < 160; step++ {
				who := rng.Intn(2)
				m := machines[who]
				when := fmt.Sprintf("step %d machine %d", step, who)
				if rng.Intn(5) > 0 { // sometimes act twice with nothing run in between
					burst(m)
				}
				act := rng.Intn(10)
				if m.Halted() && len(snaps) > 0 {
					act = 9
				}
				switch {
				case act < 5:
					s := m.Snapshot()
					enc := encodeSnapshot(t, s)
					if !bytes.Equal(enc, encodeSnapshot(t, deepSnapshot(t, m))) {
						t.Fatalf("%s: capture %d differs from the reference capture", when, len(snaps))
					}
					last[who] = len(snaps)
					snaps, encs = append(snaps, s), append(encs, enc)
					captures++
				case act < 6 || len(snaps) == 0:
					// run on
				default:
					j := rng.Intn(len(snaps))
					if last[who] >= 0 && rng.Intn(2) == 0 {
						j = last[who] // the restore most likely to find state already in place
					}
					if err := m.Restore(snaps[j]); err != nil {
						t.Fatalf("%s: restore %d: %v", when, j, err)
					}
					fresh := New(cfg)
					if err := fresh.Restore(reload(t, snaps[j])); err != nil {
						t.Fatal(err)
					}
					requireSameMachine(t, when+" after restore", m, fresh)
					if rng.Intn(2) == 0 { // else the next action meets the machine exactly as restored
						burst(m, fresh)
						requireSameMachine(t, when+" after restore and run", m, fresh)
					}
					last[who] = j
					restores++
				}
				if step%40 == 39 {
					unchanged(when)
				}
			}
			unchanged("at the end")
			if captures < 20 || restores < 20 {
				t.Fatalf("schedule too thin: %d captures, %d restores", captures, restores)
			}
		})
	}
}

// TestSnapshotsDoNotAlias pins the capture invariant directly: after a
// machine captures, runs on — refilling its TLB, dirtying pages,
// invalidating and retranslating code — and captures
// again, every earlier snapshot still serializes to the bytes it had
// when taken, and restoring the first one and re-running reproduces
// the later ones.
func TestSnapshotsDoNotAlias(t *testing.T) {
	const seed = 4
	cfg := sharingConfig(seed)
	m := New(cfg)
	m.Load(sharingProgram(seed))
	m.Run(500, nil)

	type point struct {
		snap  *Snapshot
		enc   []byte
		stats Stats
	}
	var points []point
	capture := func() {
		s := m.Snapshot()
		points = append(points, point{s, encodeSnapshot(t, s), m.Stats()})
	}
	capture()
	capture() // nothing ran: may share everything with the first
	if !bytes.Equal(points[0].enc, points[1].enc) {
		t.Fatal("back-to-back captures serialize differently")
	}
	for len(points) < 6 {
		before := m.Stats()
		for {
			if m.Run(50, nil) == 0 {
				t.Fatal("program ended before every kind of change happened")
			}
			d := m.Stats().Sub(before)
			if d.TLBRefills > 0 && d.MemWrites > 0 && d.TCInvalidations > 0 && d.TCTranslations > 0 {
				break
			}
		}
		capture()
		if n := len(points); bytes.Equal(points[n-1].enc, points[n-2].enc) {
			t.Fatal("the machine ran on but its capture did not change")
		}
	}
	for i, p := range points {
		if !bytes.Equal(encodeSnapshot(t, p.snap), p.enc) {
			t.Fatalf("snapshot %d changed after the machine ran on", i)
		}
	}
	// Replay from the first snapshot with the same partitioning: the
	// trajectory passes through the later capture points bit for bit.
	if err := m.Restore(points[0].snap); err != nil {
		t.Fatal(err)
	}
	for i, p := range points[2:] {
		for m.Stats().Instructions < p.stats.Instructions {
			m.Run(50, nil)
		}
		if !bytes.Equal(encodeSnapshot(t, m.Snapshot()), p.enc) {
			t.Fatalf("replay diverged at capture %d", i+2)
		}
	}
	for i, p := range points {
		if !bytes.Equal(encodeSnapshot(t, p.snap), p.enc) {
			t.Fatalf("snapshot %d changed during the replay", i)
		}
	}
}
