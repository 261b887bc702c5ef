package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestMachineAccessors(t *testing.T) {
	m := buildAndLoad(t, func(b *asm.Builder) {
		b.Movi(1, 7)
		b.Halt()
	})
	if m.PC() != 0x1000 {
		t.Fatalf("entry pc = %#x", m.PC())
	}
	if m.Console() == nil || m.Disk() == nil || m.Mem() == nil {
		t.Fatal("device accessors must be non-nil")
	}
	run(t, m)
	if m.TCBlocks() == 0 {
		t.Fatal("translation cache must hold the executed block")
	}
	m.SetReg(0, 99) // must be discarded
	if m.Reg(0) != 0 {
		t.Fatal("SetReg must not write r0")
	}
}

// TestTimeSourceHook holds SysTimeQuery to the default time base:
// retired instructions, 0 before the first instruction retires.
func TestTimeSourceHook(t *testing.T) {
	m := buildAndLoad(t, func(b *asm.Builder) {
		b.Sys(isa.SysTimeQuery)
		b.Halt()
	})
	run(t, m)
	if m.Reg(10) != 0 {
		t.Fatalf("default time base = %d, want 0 instructions retired", m.Reg(10))
	}
}

// TestRunToCompletionChunks: chunked completion matches a single run.
func TestRunToCompletionChunks(t *testing.T) {
	a := New(Config{MemSpan: 64 << 20})
	a.Load(fibProgram())
	na := a.RunToCompletion(7, nil) // tiny chunks
	b := New(Config{MemSpan: 64 << 20})
	b.Load(fibProgram())
	nb := b.Run(1<<20, nil)
	if na != nb || a.Reg(1) != b.Reg(1) {
		t.Fatalf("chunked %d/%d vs single %d/%d", na, a.Reg(1), nb, b.Reg(1))
	}
}
