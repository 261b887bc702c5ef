// Package repro's root benchmarks render what no command does: the
// ablations over the design choices DESIGN.md calls out and the
// multi-core extension, whose numbers EXPERIMENTS.md quotes. The tables
// and figures themselves come from cmd/repro (`repro -only table2,fig5`).
//
// Each benchmark renders its artifact to stdout on the first iteration:
//
//	go test -bench=. -benchmem
//
// The workload scale (paper instruction budgets divided by REPRO_SCALE,
// default 2000) and the benchmark subset (REPRO_BENCH=gzip,mcf,...) can
// be set via the environment; results are memoised across benchmarks
// within one run, so the heavy simulations are paid once.
package repro

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/smp"
	"repro/internal/vm"
	"repro/internal/workload"
)

var (
	runnerOnce sync.Once
	sharedRun  *experiments.Runner
)

func benchScale() int {
	if s := os.Getenv("REPRO_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 2000
}

func runner() *experiments.Runner {
	runnerOnce.Do(func() {
		opts := experiments.Options{Scale: benchScale()}
		if b := os.Getenv("REPRO_BENCH"); b != "" {
			opts.Benchmarks = strings.Split(b, ",")
		}
		if os.Getenv("REPRO_PROGRESS") != "" {
			opts.Progress = os.Stderr
		}
		sharedRun = experiments.NewRunner(opts)
	})
	return sharedRun
}

// renderOnce runs the experiment b.N times; the artifact is printed on
// the first iteration only (the simulations behind it are memoised, so
// subsequent iterations measure the rendering path).
func renderOnce(b *testing.B, f func(w io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		w := io.Writer(io.Discard)
		if i == 0 {
			fmt.Println()
			w = os.Stdout
		}
		if err := f(w); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations over the design choices DESIGN.md calls out. ----

// ablationBenches is the subset used for ablation studies: one compute-
// bound, one memory-bound, one FP benchmark.
func ablationBenches(r *experiments.Runner) []string {
	want := []string{"gzip", "mcf", "swim"}
	have := map[string]bool{}
	for _, b := range r.Benchmarks() {
		have[b] = true
	}
	var out []string
	for _, w := range want {
		if have[w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = r.Benchmarks()[:1]
	}
	return out
}

// runAblation evaluates a set of policies on the ablation subset and
// renders error/speedup per policy.
func runAblation(b *testing.B, title string, policies []sampling.Policy) {
	b.Helper()
	r := runner()
	benches := ablationBenches(r)
	renderOnce(b, func(w io.Writer) error {
		fmt.Fprintf(w, "Ablation: %s (benchmarks: %s)\n", title, strings.Join(benches, ", "))
		for _, p := range policies {
			var errSum, base, pol float64
			n := 0
			for _, bench := range benches {
				full, err := r.Baseline(bench)
				if err != nil {
					return err
				}
				res, err := r.Run(bench, p)
				if err != nil {
					return err
				}
				errSum += res.ErrorVs(full) * 100
				base += full.Cost.Units
				pol += res.Cost.Units
				n++
			}
			fmt.Fprintf(w, "  %-16s err=%.1f%%  speedup=%.1fx\n",
				p.Name(), errSum/float64(n), base/pol)
		}
		return nil
	})
}

func BenchmarkAblationMonitor(b *testing.B) {
	runAblation(b, "monitored variable (S per paper)", []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewDynamic(vm.MetricEXC, 300, 1, 0),
		sampling.NewDynamic(vm.MetricIO, 100, 1, 0),
	})
}

func BenchmarkAblationSensitivity(b *testing.B) {
	runAblation(b, "sensitivity threshold S", []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 100, 1, 0),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewDynamic(vm.MetricCPU, 500, 1, 0),
	})
}

func BenchmarkAblationInterval(b *testing.B) {
	runAblation(b, "interval length", []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewDynamic(vm.MetricCPU, 300, 10, 0),
		sampling.NewDynamic(vm.MetricCPU, 300, 100, 0),
	})
}

func BenchmarkAblationMaxFunc(b *testing.B) {
	runAblation(b, "max consecutive functional intervals", []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 10),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 100),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
	})
}

// BenchmarkAblationWarmup compares measurement warm-up strategies for
// Dynamic Sampling (no warm, detailed warm only, settle + warm).
func BenchmarkAblationWarmup(b *testing.B) {
	scale := benchScale()
	spec, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name         string
		warm, settle int
	}{
		{"no-warm", 0, 0},
		{"warm-only", 1, 0},
		{"settle+warm", 1, 1},
	}
	renderOnce(b, func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation: warm-up before Dynamic Sampling measurements (gzip)")
		base, err := sampling.FullTiming{}.Run(core.NewSession(spec, core.Options{Scale: scale}))
		if err != nil {
			return err
		}
		for _, v := range variants {
			p := sampling.NewDynamic(vm.MetricCPU, 300, 1, 0)
			p.WarmIntervals = v.warm
			p.SettleIntervals = v.settle
			res, err := p.Run(core.NewSession(spec, core.Options{Scale: scale}))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s err=%.1f%%  speedup=%.1fx\n",
				v.name, res.ErrorVs(base)*100, res.Speedup(base))
		}
		return nil
	})
}

// BenchmarkAblationTCSize studies the translation-cache capacity's
// effect on the CPU metric's signal quality (capacity flushes add noise
// when the cache is too small).
func BenchmarkAblationTCSize(b *testing.B) {
	scale := benchScale()
	spec, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	renderOnce(b, func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation: translation-cache capacity vs CPU-metric quality (gzip)")
		for _, blocks := range []int{64, 1024, 32768} {
			opts := core.Options{Scale: scale, VM: vm.Config{TCMaxBlocks: blocks}}
			base, err := sampling.FullTiming{}.Run(core.NewSession(spec, opts))
			if err != nil {
				return err
			}
			res, err := sampling.NewDynamic(vm.MetricCPU, 300, 1, 0).Run(core.NewSession(spec, opts))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  TC=%-6d err=%.1f%%  speedup=%.1fx  samples=%d\n",
				blocks, res.ErrorVs(base)*100, res.Speedup(base), res.Samples)
		}
		return nil
	})
}

// ---- Extension beyond the paper's evaluation. ----

// BenchmarkExtensionSMP runs the multi-core consolidation scenario the
// paper's conclusion points to: co-scheduled guests sharing an L2, with
// system-level Dynamic Sampling against full detail.
func BenchmarkExtensionSMP(b *testing.B) {
	scale := benchScale() * 10 // consolidation runs every guest in detail
	names := []string{"gzip", "mcf"}
	renderOnce(b, func(w io.Writer) error {
		fmt.Fprintf(w, "Extension: multi-core consolidation (%s, shared L2)\n", strings.Join(names, "+"))
		ref := smp.New(smp.Config{})
		sys := smp.New(smp.Config{})
		for _, n := range names {
			spec, err := workload.ByName(n)
			if err != nil {
				return err
			}
			img, _ := workload.BuildScaled(spec, scale)
			ref.AddGuest(n, img, spec.ScaledInstr(scale))
			img2, _ := workload.BuildScaled(spec, scale)
			sys.AddGuest(n, img2, spec.ScaledInstr(scale))
		}
		for !ref.Done() {
			ref.RunTimed(1 << 16)
		}
		ests, err := sys.DynamicSample(vm.MetricCPU, 300, 4000, 0)
		if err != nil {
			return err
		}
		for i, g := range ref.Guests() {
			mk := g.Core.Marker()
			full := float64(mk.Instrs) / float64(mk.Cycles)
			e := ests[i].IPC/full - 1
			if e < 0 {
				e = -e
			}
			fmt.Fprintf(w, "  %-6s full=%.4f sampled=%.4f err=%.1f%% samples=%d\n",
				g.Name, full, ests[i].IPC, e*100, ests[i].Samples)
		}
		return nil
	})
}
