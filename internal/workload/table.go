// Package workload generates the 26 synthetic SPEC CPU2000 stand-ins the
// reproduction simulates (Table 2 of the paper).
//
// Each benchmark is a real guest program: machine code assembled by
// internal/asm and executed by the VM. A benchmark is structured as an
// initialization phase followed by a schedule of macro-phases drawn from
// kernel archetypes (pointer-chase, streaming, ALU-dense, branchy,
// floating-point, mixed). Phase transitions perform the actions whose VM
// side effects Section 4.1 of the paper monitors:
//
//   - full transitions read "input" from the block device (I/O spike),
//     copy fresh kernel code into the hot code page (translation-cache
//     invalidation spike), and fault in new data pages (exception spike);
//   - code transitions only swap the kernel variant (CPU metric only);
//   - parameter transitions only move/resize the working set (EXC only).
//
// Kernels also contain randomly triggered low-IPC "maintenance episodes"
// with system calls, which give the EXC metric its mid-phase noise —
// the reason EXC-monitored Dynamic Sampling configurations are inferior
// in the paper's results.
//
// Programs are deterministic: benchmark name → seed → schedule → code.
package workload

import (
	"fmt"
	"strings"
)

// Spec describes one benchmark of the suite (the static facts of the
// paper's Table 2).
type Spec struct {
	Name     string
	RefInput string
	// PaperGInstr is the paper's executed instruction count in billions
	// (simulation stops at 240 G).
	PaperGInstr int
	// PaperSimPoints is the number of simulation points SimPoint 3.2
	// chose in the paper for max K=300.
	PaperSimPoints int
	// FP marks the floating-point half of the suite.
	FP bool
	// MemBound in [0,1] encodes how memory-latency bound the benchmark
	// is (mcf and art near 1, crafty and eon near 0), steering the
	// generator's kernel palette so per-benchmark IPC levels match the
	// qualitative SPEC CPU2000 folklore the paper's Figure 8 shows.
	MemBound float64
}

// Suite is the SPEC CPU2000 benchmark table (Table 2 of the paper), in
// paper order: 12 integer then 14 floating-point benchmarks.
var Suite = []Spec{
	{"gzip", "graphic", 70, 131, false, 0.25},
	{"vpr", "place", 93, 89, false, 0.45},
	{"gcc", "166.i", 29, 166, false, 0.40},
	{"mcf", "inp.in", 48, 86, false, 0.90},
	{"crafty", "crafty.in", 141, 123, false, 0.15},
	{"parser", "ref.in", 240, 153, false, 0.50},
	{"eon", "cook", 73, 110, false, 0.15},
	{"perlbmk", "diffmail", 32, 181, false, 0.30},
	{"gap", "ref.in", 195, 120, false, 0.40},
	{"vortex", "lendian1.raw", 112, 91, false, 0.35},
	{"bzip2", "source", 85, 113, false, 0.35},
	{"twolf", "ref", 240, 132, false, 0.50},
	{"wupwise", "wupwise.in", 240, 28, true, 0.30},
	{"swim", "swim.in", 226, 135, true, 0.80},
	{"mgrid", "mgrid.in", 240, 124, true, 0.70},
	{"applu", "applu.in", 240, 128, true, 0.70},
	{"mesa", "mesa.in", 240, 81, true, 0.20},
	{"galgel", "galgel.in", 240, 134, true, 0.45},
	{"art", "c756hel.in", 56, 169, true, 0.90},
	{"equake", "inp.in", 112, 168, true, 0.75},
	{"facerec", "ref.in", 240, 147, true, 0.40},
	{"ammp", "ammp-ref.in", 240, 153, true, 0.65},
	{"lucas", "lucas2.in", 240, 44, true, 0.70},
	{"fma3d", "fma3d.in", 240, 104, true, 0.50},
	{"sixtrack", "fort.3", 240, 235, true, 0.25},
	{"apsi", "apsi.in", 240, 94, true, 0.50},
}

// ByName returns the spec for a benchmark name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q (the suite: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the suite's benchmark names in paper order.
func Names() []string {
	out := make([]string, len(Suite))
	for i, s := range Suite {
		out[i] = s.Name
	}
	return out
}

// Seed returns the deterministic generator seed for the benchmark.
func (s Spec) Seed() uint64 { return SeedFromName(s.Name) }

// Segments derives the number of macro-phases from the paper's simpoint
// count: benchmarks with more simpoints have more program phases. The
// clamp keeps even the most uniform benchmark (wupwise, 28 simpoints)
// multi-phase and the most varied (sixtrack, 235) tractable.
func (s Spec) Segments() int {
	n := (s.PaperSimPoints + 5) / 10
	if n < 4 {
		n = 4
	}
	if n > 24 {
		n = 24
	}
	return n
}

// ScaledInstr returns the paper instruction budget divided by scale.
func (s Spec) ScaledInstr(scale int) uint64 {
	if scale < 1 {
		scale = 1
	}
	return uint64(s.PaperGInstr) * 1_000_000_000 / uint64(scale)
}
