// Phasetrace reproduces the paper's Figure 2 style analysis for any
// benchmark: per-interval IPC under full timing alongside the VM's
// internal statistics, demonstrating the correlation Dynamic Sampling
// exploits. Output is CSV for plotting.
//
//	go run ./examples/phasetrace -bench perlbmk -scale 20000 > trace.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "perlbmk", "benchmark to trace")
	scale := flag.Int("scale", 20_000, "workload scale divisor")
	limit := flag.Int("n", 0, "intervals to emit (0 = all)")
	flag.Parse()

	spec, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	s := core.NewSession(spec, core.Options{Scale: *scale})
	fmt.Fprintf(os.Stderr, "tracing %s: %d instructions, interval %d\n",
		spec.Name, s.Total(), s.IntervalLen())

	ft := sampling.FullTiming{}
	res, err := ft.Run(s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("interval,ipc,tc_invalidations,exceptions,io_ops")
	for i, tr := range res.Trace {
		if *limit > 0 && i >= *limit {
			break
		}
		fmt.Printf("%d,%.4f,%d,%d,%d\n",
			tr.Index, tr.IPC, tr.TCInvalidations, tr.Exceptions, tr.IOOps)
	}

	// Ground truth from the guest, for checking detections: each phase
	// marks its own start with its plan ID (counted from 1, in plan
	// order).
	fmt.Fprintln(os.Stderr, "marked phase starts (instruction, interval, kernel, transition):")
	for _, mark := range s.Machine().PhaseLog() {
		ph := s.Plan().Phases[mark.Value-1]
		fmt.Fprintf(os.Stderr, "  %10d %6d %-10s %s\n",
			mark.Instr, mark.Instr/s.IntervalLen(), ph.Kernel, ph.Transition)
	}
}
