package vm

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// suffixProgram builds a straight 24-instruction ALU body ending in a
// halt, so every interior pc has a well-defined fresh decode that the
// suffix memo must reproduce.
func suffixProgram() *asm.Image {
	b := asm.NewBuilder(0x1000)
	for i := 0; i < 24; i++ {
		b.I(isa.OpAddi, 2, 2, 1)
	}
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	return img
}

// TestDecodedSuffixReuse pins the decode-memo contract: a mid-block
// re-entry translation must share the host block's decoded storage
// (pointer-identical suffix, no re-decode), and the shared suffix must
// retire exactly like a fresh decode would.
func TestDecodedSuffixReuse(t *testing.T) {
	m := New(Config{MemSpan: 64 << 20})
	m.Load(suffixProgram())
	host := m.lookup(0x1000)
	if len(host.insts) < 3 {
		t.Fatalf("host block too short (%d insts) for a suffix probe", len(host.insts))
	}

	midPC := uint64(0x1000 + 2*isa.InstBytes)
	suffix := m.decodedSuffix(midPC, m.cfg.MaxBlockLen)
	if suffix == nil {
		t.Fatal("memo missed a pc interior to a live block")
	}
	if &suffix[0] != &host.insts[2] {
		t.Fatal("suffix is a copy, not shared storage")
	}

	// The shared suffix must execute identically to a fresh decode:
	// budget out mid-block, resume (which installs the suffix block),
	// and compare against an uninterrupted run.
	m2 := New(Config{MemSpan: 64 << 20})
	m2.Load(suffixProgram())
	m2.Run(2, nil)
	m2.RunToCompletion(0, nil)

	ref := New(Config{MemSpan: 64 << 20})
	ref.Load(suffixProgram())
	ref.RunToCompletion(0, nil)
	if m2.Reg(2) != ref.Reg(2) || m2.Stats().Instructions != ref.Stats().Instructions {
		t.Fatalf("suffix-resumed run diverged: r2=%d/%d insts=%d/%d",
			m2.Reg(2), ref.Reg(2), m2.Stats().Instructions, ref.Stats().Instructions)
	}

	// A dead host must not donate its storage.
	host.dead = true
	if s := m.decodedSuffix(midPC, m.cfg.MaxBlockLen); s != nil && &s[0] == &host.insts[2] {
		t.Fatal("dead block donated its decoded storage")
	}
}

// TestDecodedSuffixMatchesFreshDecode holds the memo to representational
// identity: each dinst is a function of its own word and address, so the
// suffix shared from a host block must equal, element by element, what a
// fresh decodeInsts at the interior pc returns. The body alternates
// slli/add, so a decode that rewrote instructions by their neighbours
// would differ between an even and an odd starting pc.
func TestDecodedSuffixMatchesFreshDecode(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	for i := 0; i < 12; i++ {
		b.I(isa.OpSlli, 2, 2, 1)
		b.R(isa.OpAdd, 3, 3, 2)
	}
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())

	m := New(Config{MemSpan: 64 << 20})
	m.Load(img)
	host := m.lookup(0x1000)
	for i := 1; i < len(host.insts); i++ {
		pc := 0x1000 + uint64(i)*isa.InstBytes
		suffix := m.decodedSuffix(pc, m.cfg.MaxBlockLen)
		if suffix == nil {
			t.Fatalf("memo missed interior pc %#x", pc)
		}
		fresh, err := decodeInsts(m.mem.Peek, pc, m.cfg.MaxBlockLen)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(suffix, fresh) {
			j := 0
			for j < min(len(suffix), len(fresh)) && suffix[j] == fresh[j] {
				j++
			}
			t.Fatalf("pc %#x: shared suffix (%d insts) and fresh decode (%d) differ at element %d",
				pc, len(suffix), len(fresh), j)
		}
	}
}

// BenchmarkDecodeMidBlock measures the mid-block re-translation path
// the decode memo accelerates (a Run budget expiring inside a block,
// the next Run re-entering at an interior pc) against the fresh decode
// it replaces.
func BenchmarkDecodeMidBlock(b *testing.B) {
	m := New(Config{MemSpan: 64 << 20})
	m.Load(suffixProgram())
	m.lookup(0x1000)
	midPC := uint64(0x1000 + 2*isa.InstBytes)

	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m.decodedSuffix(midPC, m.cfg.MaxBlockLen) == nil {
				b.Fatal("memo miss")
			}
		}
	})
	b.Run("fresh-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeInsts(m.mem.Peek, midPC, m.cfg.MaxBlockLen); err != nil {
				b.Fatal(err)
			}
		}
	})
}
