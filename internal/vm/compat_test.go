package vm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// fixtureProgram touches every section of the serialized format: it
// writes the console, marks phases, reads and writes the block device
// and stores to its data page, in a loop so the translation cache holds
// several blocks when the snapshot is taken.
func fixtureProgram(b *asm.Builder) {
	b.Movi(1, 0x2000)
	b.Movi(2, int64(uint64(0x6f6c6c65_68))) // "hello" little-endian
	b.St(2, 1, 0)
	b.Movi(10, 0x2000)
	b.Movi(11, 5)
	b.Sys(isa.SysConsoleOut)
	b.Movi(1, 4) // rounds
	b.Label("round")
	b.Movi(10, 7)
	b.Sys(isa.SysPhaseMark)
	b.I(isa.OpAddi, 10, 1, 0)
	b.Movi(11, 0x2100)
	b.Movi(12, 1)
	b.Sys(isa.SysBlockRead)
	b.I(isa.OpAddi, 10, 1, 8)
	b.Movi(11, 0x2100)
	b.Movi(12, 1)
	b.Sys(isa.SysBlockWrite)
	b.Movi(5, 0x2800)
	b.St(1, 5, 0)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "round")
	b.Halt()
}

// fixtureInstr is where fixtureProgram is snapshotted: inside its third
// round, before it halts.
const fixtureInstr = 40

// TestSnapshotFromParentCommitDecodes pins the serialized snapshot
// format, digest footer included: testdata/parent.snap was written by
// the code before the footer hash moved to hash/fnv. It must decode,
// re-encode to identical bytes, and equal what this code writes for
// the same machine state. The fuzz corpus cannot catch a changed
// footer hash — that only turns its entries into ErrCorruptSnapshot.
func TestSnapshotFromParentCommitDecodes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent.snap"))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := decoded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), fixture) {
		t.Fatal("re-encoding the parent snapshot changed its bytes")
	}

	m := buildAndLoad(t, fixtureProgram)
	m.Run(fixtureInstr, nil)
	var live bytes.Buffer
	if _, err := m.Snapshot().WriteTo(&live); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), fixture) {
		t.Fatalf("this code encodes the fixture state as %d bytes that differ from the parent's %d", live.Len(), len(fixture))
	}
}
