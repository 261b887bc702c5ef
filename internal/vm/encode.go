package vm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mix"
)

// Serialized snapshot format (all integers little-endian):
//
//	magic    u32  "DSCK"
//	version  u16  snapVersion
//	padding  u16  zero
//	pc, exitCode, halted (u64 each; halted is 0/1)
//	regs     32 × u64
//	stats    17 × u64 (the field order of vm.Stats; version-bound)
//	tlb      u64 count, then entries
//	phase    u64 count, then (instr, value) pairs
//	console  device.Console.EncodeTo
//	disk     device.Block.EncodeTo
//	memory   mem.Snapshot.EncodeTo
//	blocks   u64 count, then ascending translation-cache block PCs
//	footer   u64 FNV-1a (hash/fnv New64a) over every preceding byte
//
// The footer makes corruption — truncation, a flipped bit, a stale
// version header — detectable before any machine state is restored;
// ReadSnapshot fails with ErrCorruptSnapshot (or a structural error)
// and callers fall back to cold execution. The encoding is fully
// deterministic (maps are emitted in sorted order), so two processes
// serializing the same machine state produce identical bytes — the
// checkpoint store relies on this to make concurrent disk writes of
// the same key idempotent.

const (
	snapMagic   = 0x4b435344 // "DSCK"
	snapVersion = 1

	// maxSavedBlocks bounds the block count a decoded snapshot may
	// claim (far above any real translation-cache capacity).
	maxSavedBlocks = 1 << 24
	// maxTLBEntries bounds the TLB size a decoded snapshot may claim.
	maxTLBEntries = 1 << 26
)

// ErrCorruptSnapshot reports a serialized snapshot whose digest footer
// does not match its payload (truncation or bit corruption).
var ErrCorruptSnapshot = errors.New("vm: corrupt snapshot (digest mismatch)")

// ErrSnapshotVersion reports a serialized snapshot with an unsupported
// format version.
var ErrSnapshotVersion = errors.New("vm: unsupported snapshot version")

// hashWriter feeds every byte written through it to h and counts the
// bytes w accepted, for WriteTo's result.
type hashWriter struct {
	w io.Writer
	h hash.Hash64
	n int64
}

func (f *hashWriter) Write(p []byte) (int, error) {
	f.h.Write(p)
	n, err := f.w.Write(p)
	f.n += int64(n)
	return n, err
}

// readU64s fills vs with little-endian values.
func readU64s(r io.Reader, vs []uint64) error {
	var buf [512]byte
	for len(vs) > 0 {
		n := len(vs)
		if n > len(buf)/8 {
			n = len(buf) / 8
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			vs[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		vs = vs[n:]
	}
	return nil
}

// readU64Slice reads count values, growing the result chunk by chunk so
// a corrupt length field (anything up to the section cap) cannot force
// a huge up-front allocation: a truncated stream fails after at most
// one 512 KiB chunk instead of after a half-gigabyte make.
func readU64Slice(r io.Reader, count uint64) ([]uint64, error) {
	const chunk = 1 << 16
	alloc := count
	if alloc > chunk {
		alloc = chunk
	}
	out := make([]uint64, 0, alloc)
	for count > 0 {
		n := count
		if n > chunk {
			n = chunk
		}
		buf := make([]uint64, n)
		if err := readU64s(r, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		count -= n
	}
	return out, nil
}

// WriteTo serialises the snapshot; it implements io.WriterTo. The
// returned count includes the digest footer.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	fw := &hashWriter{w: bw, h: fnv.New64a()}
	if err := s.encodePayload(fw); err != nil {
		return fw.n, err
	}
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], fw.h.Sum64())
	n, err := bw.Write(foot[:])
	total := fw.n + int64(n)
	if err != nil {
		return total, err
	}
	return total, bw.Flush()
}

func (s *Snapshot) encodePayload(w io.Writer) error {
	ww := mix.NewWriter(w)
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], snapMagic)
	binary.LittleEndian.PutUint16(head[4:6], snapVersion)
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	halted := uint64(0)
	if s.halted {
		halted = 1
	}
	fixed := make([]uint64, 0, 3+isa.NumRegs)
	fixed = append(fixed, s.pc, s.exitCode, halted)
	fixed = append(fixed, s.regs[:]...)
	if err := ww.Words(fixed...); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, &s.stats); err != nil {
		return err
	}
	if err := ww.Words(uint64(s.tlbEntries)); err != nil {
		return err
	}
	for i, l := range s.tlb {
		if err := ww.Words(l.entries[:min(tlbLineLen, s.tlbEntries-i*tlbLineLen)]...); err != nil {
			return err
		}
	}
	phase := make([]uint64, 0, 1+2*len(s.phaseLog))
	phase = append(phase, uint64(len(s.phaseLog)))
	for _, pm := range s.phaseLog {
		phase = append(phase, pm.Instr, pm.Value)
	}
	if err := ww.Words(phase...); err != nil {
		return err
	}
	if err := s.console.EncodeTo(w); err != nil {
		return err
	}
	if err := s.disk.EncodeTo(w); err != nil {
		return err
	}
	if err := s.mem.EncodeTo(w); err != nil {
		return err
	}
	pcs := []uint64{0}
	for _, p := range s.code {
		for _, b := range p.blocks {
			pcs = append(pcs, b.pc)
		}
	}
	pcs[0] = uint64(len(pcs) - 1)
	return ww.Words(pcs...)
}

// ReadSnapshot deserialises a snapshot written by WriteTo, verifying
// the digest footer. It never panics on malformed input: structural
// violations (implausible lengths, bad magic, version skew) and digest
// mismatches all surface as errors, and no partially-decoded snapshot
// is ever returned. Reading is buffered, so r may be read past the
// footer — unless r is itself a *bufio.Reader of at least 64 KiB, which
// is used as it is: a caller that must know where the snapshot ended
// (ckpt.Store.PutFrom) passes one and asks it what is left.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br, h := bufio.NewReaderSize(r, 1<<16), fnv.New64a()
	fr := io.TeeReader(br, h)
	var head [8]byte
	if _, err := io.ReadFull(fr, head[:]); err != nil {
		return nil, fmt.Errorf("vm: snapshot header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(head[0:4]); m != snapMagic {
		return nil, fmt.Errorf("vm: bad snapshot magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != snapVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, v, snapVersion)
	}
	s := &Snapshot{}
	fixed := make([]uint64, 3+isa.NumRegs)
	if err := readU64s(fr, fixed); err != nil {
		return nil, fmt.Errorf("vm: snapshot cpu state: %w", err)
	}
	s.pc, s.exitCode, s.halted = fixed[0], fixed[1], fixed[2] != 0
	copy(s.regs[:], fixed[3:])
	if err := binary.Read(fr, binary.LittleEndian, &s.stats); err != nil {
		return nil, fmt.Errorf("vm: snapshot stats: %w", err)
	}
	var count [1]uint64
	if err := readU64s(fr, count[:]); err != nil {
		return nil, fmt.Errorf("vm: snapshot tlb: %w", err)
	}
	if n := count[0]; n == 0 || n > maxTLBEntries || n&(n-1) != 0 {
		return nil, fmt.Errorf("vm: implausible snapshot TLB size %d", count[0])
	}
	tlb, err := readU64Slice(fr, count[0])
	if err != nil {
		return nil, fmt.Errorf("vm: snapshot tlb: %w", err)
	}
	s.tlb, s.tlbEntries = linesOf(tlb), len(tlb)
	if err := readU64s(fr, count[:]); err != nil {
		return nil, fmt.Errorf("vm: snapshot phase log: %w", err)
	}
	if count[0] > maxPhaseLog {
		return nil, fmt.Errorf("vm: snapshot phase log %d exceeds cap %d", count[0], maxPhaseLog)
	}
	if count[0] > 0 {
		pairs, err := readU64Slice(fr, 2*count[0])
		if err != nil {
			return nil, fmt.Errorf("vm: snapshot phase log: %w", err)
		}
		s.phaseLog = make([]PhaseMark, count[0])
		for i := range s.phaseLog {
			s.phaseLog[i] = PhaseMark{Instr: pairs[2*i], Value: pairs[2*i+1]}
		}
	}
	console, err := device.DecodeConsole(fr)
	if err != nil {
		return nil, err
	}
	s.console = *console
	if s.disk, err = device.DecodeBlock(fr); err != nil {
		return nil, err
	}
	if s.mem, err = mem.DecodeSnapshot(fr); err != nil {
		return nil, err
	}
	if err := readU64s(fr, count[:]); err != nil {
		return nil, fmt.Errorf("vm: snapshot blocks: %w", err)
	}
	if count[0] > maxSavedBlocks {
		return nil, fmt.Errorf("vm: snapshot block count %d exceeds cap %d", count[0], maxSavedBlocks)
	}
	pcs, err := readU64Slice(fr, count[0])
	if err != nil {
		return nil, fmt.Errorf("vm: snapshot blocks: %w", err)
	}
	if !slices.IsSorted(pcs) { // code pages must ascend for Restore
		return nil, errors.New("vm: snapshot block PCs not ascending")
	}
	blocks := make([]savedBlock, len(pcs))
	for i, pc := range pcs {
		blocks[i] = savedBlock{pc: pc}
	}
	s.code = pagesOf(blocks)
	// The footer is read around the hasher: it authenticates the
	// payload, not itself.
	want := h.Sum64()
	var foot [8]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return nil, fmt.Errorf("%w (missing footer)", ErrCorruptSnapshot)
	}
	if binary.LittleEndian.Uint64(foot[:]) != want {
		return nil, ErrCorruptSnapshot
	}
	return s, nil
}
