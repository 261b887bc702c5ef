// Newbenchmark shows how to define a custom guest workload from scratch
// with the assembler, run it on the VM, and sample it — the path a user
// takes to study their own phase behaviour rather than the built-in
// SPEC stand-ins.
//
// The program alternates between a compute kernel and a pointer-chasing
// kernel by rewriting its own hot code region (the self-modifying-code
// pattern the VM's translation cache observes), so the CPU metric sees
// its phase changes.
//
//	go run ./examples/newbenchmark
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/smp"
	"repro/internal/timing"
	"repro/internal/vm"
)

const (
	codeBase  = 0x0001_0000
	hotBase   = 0x0008_0000
	stageBase = 0x1000_0000
	arrayBase = 0x2000_0000
)

// kernel assembles a tiny position-independent loop: compute-heavy when
// memory is false, a dependent load chain when true. r2 holds the
// iteration count; return via r30.
func kernel(memory bool) []uint64 {
	b := asm.NewBuilder(hotBase)
	b.Label("loop")
	if memory {
		// Dependent pseudo-random loads over the array at r15.
		b.I(isa.OpSlli, 13, 4, 2)
		b.R(isa.OpAdd, 4, 4, 13)
		b.I(isa.OpAddi, 4, 4, 17)
		b.R(isa.OpAnd, 13, 4, 16)
		b.I(isa.OpSlli, 13, 13, 3)
		b.R(isa.OpAdd, 13, 13, 15)
		b.Ld(3, 13, 0)
		b.R(isa.OpAdd, 4, 4, 3)
	} else {
		for i := 0; i < 8; i++ {
			b.R(isa.OpAdd, uint8(3+i%4), uint8(3+i%4), uint8(5+i%3))
		}
	}
	b.I(isa.OpAddi, 2, 2, -1)
	b.Br(isa.OpBne, 2, 0, "loop")
	b.Jalr(0, 30, 0)
	return b.Words()
}

func buildProgram() *asm.Image {
	compute := kernel(false)
	memory := kernel(true)
	data := asm.NewDataSeg(stageBase)
	stageA := data.Alloc("compute", uint64(len(compute))*8, 8)
	for i, w := range compute {
		data.SetWord(stageA+uint64(i)*8, w)
	}
	stageB := data.Alloc("memory", uint64(len(memory))*8, 8)
	for i, w := range memory {
		data.SetWord(stageB+uint64(i)*8, w)
	}

	c := asm.NewBuilder(codeBase)
	c.Jmp("main")
	// copy(r20 -> r21, r22 words), link r23
	c.Label("copy")
	c.Ld(24, 20, 0)
	c.St(24, 21, 0)
	c.I(isa.OpAddi, 20, 20, 8)
	c.I(isa.OpAddi, 21, 21, 8)
	c.I(isa.OpAddi, 22, 22, -1)
	c.Br(isa.OpBne, 22, 0, "copy")
	c.Jalr(0, 23, 0)

	c.Label("main")
	c.Movi(15, arrayBase)
	c.Movi(16, 1<<10-1) // 8 KB working set
	c.Movi(28, hotBase)
	// Ten alternating phases.
	for phase := 0; phase < 10; phase++ {
		stage, words := stageA, len(compute)
		if phase%2 == 1 {
			stage, words = stageB, len(memory)
		}
		c.Movi(20, int64(stage))
		c.Movi(21, hotBase)
		c.Movi(22, int64(words))
		c.Jal(23, "copy")
		c.Movi(10, int64(phase))
		c.Sys(isa.SysPhaseMark)
		c.Movi(2, 60_000)
		c.Jalr(30, 28, 0)
	}
	c.Movi(10, 0)
	c.Sys(isa.SysExit)

	img := &asm.Image{Entry: codeBase}
	img.AddSegment(codeBase, c.Words())
	img.Segments = append(img.Segments, data.Segments()...)
	return img
}

func main() {
	img := buildProgram()

	// Direct use of the substrate: run functionally first.
	m := vm.New(vm.Config{})
	m.Load(img)
	total := m.RunToCompletion(0, nil)
	st := m.Stats()
	fmt.Printf("custom program: %d instructions, %d phase marks, %d TC invalidations\n",
		total, len(m.PhaseLog()), st.TCInvalidations)

	// Full timing for reference.
	fullVM := vm.New(vm.Config{})
	fullVM.Load(img)
	coreModel := timing.NewCore(timing.DefaultConfig())
	fullVM.RunToCompletion(0, coreModel)
	mk := coreModel.Marker()
	fullIPC := float64(mk.Instrs) / float64(mk.Cycles)
	fmt.Printf("full timing: IPC %.4f over %d cycles\n", fullIPC, mk.Cycles)

	// Dynamic Sampling over the same image: sampling.Dynamic monitors the
	// CPU statistic between fixed intervals, timing only after changes.
	// A one-guest smp.System is the sampling target for any image.
	// This program's kernels are tiny (one or two translated blocks), so
	// transitions only evict a couple of blocks: a lower sensitivity than
	// the SPEC suite's 300% is the right choice here — picking the
	// threshold to match the workload is part of using Dynamic Sampling.
	sys := smp.New(smp.Config{})
	sys.AddGuest("custom", img, total)
	ests, err := sys.DynamicSample(vm.MetricCPU, 100, 20_000, 0)
	if err != nil {
		log.Fatal(err)
	}
	ds := ests[0]
	fmt.Printf("dynamic sampling: IPC %.4f from %d samples (error %.2f%%)\n",
		ds.IPC, ds.Samples, (ds.IPC/fullIPC-1)*100)
	if ds.Samples == 0 {
		log.Fatal("no phase changes detected; sensitivity too high for this workload")
	}
}
