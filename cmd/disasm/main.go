// Command disasm inspects the generated guest programs: the image
// summary with the workload's phase plan and the dispatcher ("main"),
// the staged kernel fragments, or a raw address range of the loaded
// image. Useful when studying or extending the workload generator.
//
//	disasm -bench gzip                 # image summary and phase plan
//	disasm -bench gzip -kernels        # staged kernel fragments
//	disasm -bench gzip -start 0x10000 -count 64
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "gzip", "benchmark to disassemble")
	scale := flag.Int("scale", 50_000, "workload scale divisor")
	kernels := flag.Bool("kernels", false, "dump each kernel archetype fragment")
	start := flag.Uint64("start", 0, "start address to disassemble (0 = summary)")
	count := flag.Int("count", 32, "instructions to disassemble from -start")
	flag.Parse()

	if *kernels {
		for kind := workload.KernelKind(0); int(kind) < workload.NumKernelKinds; kind++ {
			for v := 0; v < 2; v++ {
				fr := workload.BuildFragment(kind, v, workload.HotBase)
				fmt.Printf("---- %s (%d instructions, %d per iteration) ----\n",
					fr.Name(), len(fr.Words), fr.PerIter)
				for i, w := range fr.Words {
					fmt.Printf("  %#06x  %v\n", workload.HotBase+uint64(i*8), isa.Decode(w))
				}
			}
		}
		return
	}

	spec, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disasm:", err)
		os.Exit(1)
	}
	img, plan := workload.BuildScaled(spec, *scale)

	if *start == 0 {
		fmt.Printf("%s: %d segments, %d initialised bytes, entry %#x\n",
			spec.Name, len(img.Segments), img.Bytes(), img.Entry)
		fmt.Printf("plan: %d phases over %d instructions (interval %d)\n",
			len(plan.Phases), plan.TotalTarget, plan.IntervalLen)
		for _, ph := range plan.Phases {
			fmt.Printf("  phase %2d %-10s %-5s budget=%-11d ws=%d words\n",
				ph.ID, ph.Kernel, ph.Transition, ph.Budget, ph.WSWords)
		}
		fmt.Printf("dispatcher at %#x (%d instructions)\n",
			img.Segments[0].Base, len(img.Segments[0].Words))
		fmt.Println("\nfirst 48 dispatcher instructions:")
		for i, w := range img.Segments[0].Words {
			if i >= 48 {
				break
			}
			fmt.Printf("  %#06x  %v\n", img.Segments[0].Base+uint64(i*8), isa.Decode(w))
		}
		return
	}

	// Load into a machine and disassemble from memory (covers staged
	// data too).
	m := vm.New(vm.Config{})
	m.Load(img)
	for i := 0; i < *count; i++ {
		addr := *start + uint64(i*8)
		w := m.Mem().Peek(addr)
		in := isa.Decode(w)
		if !in.Op.Valid() {
			fmt.Printf("  %#06x  .word %#x\n", addr, w)
			continue
		}
		fmt.Printf("  %#06x  %v\n", addr, in)
	}
}
