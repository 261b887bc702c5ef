// Multicore demonstrates the direction the paper's conclusions point
// to: simulating a multi-core consolidation scenario — several guests,
// each on its own core, contending for a shared L2 — with system-level
// Dynamic Sampling deciding when to engage the timing back-ends.
//
//	go run ./examples/multicore -guests gzip,mcf,swim -scale 50000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/smp"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	guests := flag.String("guests", "gzip,mcf", "comma-separated benchmark names to co-run")
	scale := flag.Int("scale", 50_000, "workload scale divisor")
	interval := flag.Uint64("interval", 4000, "sampling interval (instructions per guest)")
	flag.Parse()

	names := strings.Split(*guests, ",")

	// Reference: full detail on every core.
	ref := smp.New(smp.Config{})
	addAll(ref, names, *scale)
	for !ref.Done() {
		ref.RunTimed(1 << 16)
	}

	// Sampled: system-level Dynamic Sampling (CPU metric, S=300%).
	sys := smp.New(smp.Config{})
	addAll(sys, names, *scale)
	ests, err := sys.DynamicSample(vm.MetricCPU, 300, *interval, 0)
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "guest\tfull-detail IPC\tsampled IPC\terror\tsamples")
	for i, g := range ref.Guests() {
		mk := g.Core.Marker()
		full := float64(mk.Instrs) / float64(mk.Cycles)
		e := ests[i].IPC/full - 1
		if e < 0 {
			e = -e
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.2f%%\t%d\n",
			g.Name, full, ests[i].IPC, e*100, ests[i].Samples)
	}
	tw.Flush()
	l2 := ref.SharedL2().Stats()
	fmt.Printf("shared L2: %d accesses, %.1f%% miss (all cores)\n",
		l2.Accesses(), l2.MissRate()*100)
}

func addAll(sys *smp.System, names []string, scale int) {
	for _, n := range names {
		spec, err := workload.ByName(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		img, _ := workload.BuildScaled(spec, scale)
		sys.AddGuest(spec.Name, img, spec.ScaledInstr(scale))
	}
}
