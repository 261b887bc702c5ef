package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// EmitCopyRoutine emits the guest copy routine at label: called with
// Jal(23, label), it copies r22 words from r20 to r21 and returns
// through r23, clobbering r24.
func EmitCopyRoutine(c *asm.Builder, label string) {
	c.Label(label)
	c.Ld(24, 20, 0)
	c.St(24, 21, 0)
	c.I(isa.OpAddi, 20, 20, 8)
	c.I(isa.OpAddi, 21, 21, 8)
	c.I(isa.OpAddi, 22, 22, -1)
	c.Br(isa.OpBne, 22, isa.RegZero, label)
	c.Jalr(isa.RegZero, 23, 0)
}

// BuildKernelImage wraps a single kernel fragment in a minimal
// dispatcher that installs it at the hot page, sets its parameter
// registers, and calls it in an endless loop. Tests, microbenchmarks and
// examples use it to study one archetype in isolation.
func BuildKernelImage(frag *Fragment, wsWords uint64, epMaskBits, epIters int) *asm.Image {
	if wsWords == 0 || wsWords&(wsWords-1) != 0 {
		panic("workload: wsWords must be a power of two")
	}
	c := asm.NewBuilder(CodeBase)
	data := asm.NewDataSeg(DataBase)
	staged := data.Alloc("frag", uint64(len(frag.Words))*8, 8)
	for i, w := range frag.Words {
		data.SetWord(staged+uint64(i)*8, w)
	}

	c.Jmp("main")
	EmitCopyRoutine(c, "copyloop")

	c.Label("main")
	c.Movi(28, int64(HotBase))
	c.Movi(20, int64(staged))
	c.Movi(21, int64(HotBase))
	c.Movi(22, int64(len(frag.Words)))
	c.Jal(23, "copyloop")

	c.Movi(14, 0x1d872b41|1<<45)
	c.Movi(15, int64(ArrayBase))
	c.Movi(16, int64(wsWords-1))
	c.Movi(17, 1)
	c.Movi(18, int64(uint64(1)<<epMaskBits-1))
	c.Movi(19, int64(epIters))

	c.Label("again")
	c.Movi(2, 1<<30) // effectively endless
	c.Jalr(rLink, 28, 0)
	c.Jmp("again")

	img := &asm.Image{Entry: CodeBase}
	img.AddSegment(CodeBase, c.Words())
	img.Segments = append(img.Segments, data.Segments()...)
	return img
}
