// Command dynsim runs one benchmark of the synthetic SPEC CPU2000 suite
// under one sampling policy and reports the IPC estimate, sampling
// statistics, and modelled host cost.
//
// Usage:
//
//	dynsim -bench gzip -policy dynamic -metric CPU -sens 300 -interval 1 -maxfunc 0
//	dynsim -bench mcf  -policy smarts
//	dynsim -bench art  -policy simpoint -prof
//	dynsim -bench gcc  -policy full
//	dynsim -bench gzip -policy stratified -strata 6 -samples 48
//	dynsim -bench mcf  -policy rankedset -target 0.01 -budget 400
//
// The smarts, stratified and rankedset policies report their CPI
// estimate with a confidence interval ("CPI ± halfwidth"). For the
// latter two, -target switches to error-targeting mode, refining until
// the interval's relative half-width drops below the target or -budget
// is exhausted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "gzip", "benchmark name (the 26 rows of repro -only table2; an unknown name lists them)")
	policy := flag.String("policy", "dynamic", "full | smarts | simpoint | dynamic | stratified | rankedset")
	metric := flag.String("metric", "CPU", "dynamic sampling monitored variable: CPU, EXC, or I/O")
	sens := flag.Float64("sens", 300, "dynamic sampling sensitivity (percent)")
	intervalMul := flag.Uint64("interval", 1, "interval length multiplier (1=1M, 10=10M, 100=100M)")
	maxFunc := flag.Int("maxfunc", 0, "max consecutive functional intervals (0 = unlimited)")
	prof := flag.Bool("prof", false, "simpoint: charge the profiling pass (SimPoint+prof)")
	strata := flag.Int("strata", 0, "stratified: number of proxy strata (0 = default 6)")
	samples := flag.Int("samples", 0, "stratified: detailed-timing samples across strata (0 = default 48)")
	setSize := flag.Int("setsize", 0, "rankedset: candidates ranked per set (0 = default 4)")
	cycles := flag.Int("cycles", 0, "rankedset: balanced measurement cycles (0 = default 12)")
	target := flag.Float64("target", 0, "stratified/rankedset: refine until the CPI interval's relative half-width is below this fraction, e.g. 0.01 = ±1% (0 = fixed design)")
	budget := flag.Int("budget", 0, "measurement budget for -target: samples (stratified) or cycles (rankedset); 0 = policy default")
	conf := flag.Float64("conf", 0, "stratified/rankedset: confidence level of the CPI interval (0 = default 0.95)")
	statSeed := flag.Uint64("seed", 17, "stratified/rankedset: sampling seed")
	scale := flag.Int("scale", 2000, "workload scale divisor")
	baseline := flag.Bool("baseline", false, "also run full timing and report error/speedup")
	ckptStride := flag.Uint64("ckpt-stride", 0, "checkpoint deposit stride in base intervals (0 = no checkpoints); a non-zero stride keeps them in memory")
	timeout := flag.Duration("timeout", 0, "overall run deadline (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json and /transitions on this address (e.g. 127.0.0.1:9090)")
	flag.Parse()

	if msg := flagError(*scale, *conf); msg != "" {
		fmt.Fprintln(os.Stderr, "dynsim:", msg)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Sample finely: a checkpoint store is many small allocations,
		// and the default 512 kB rate attributes them in 512 kB steps.
		runtime.MemProfileRate = 4 << 10
	}
	var store *ckpt.Store
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
		}
		runtime.KeepAlive(store) // the checkpoint store is the live data of interest
	}()

	spec, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsim:", err)
		os.Exit(1)
	}

	var p sampling.Policy
	switch *policy {
	case "full", "smarts", "simpoint":
		p = artifactPolicy(*policy, *prof, *scale)
	case "dynamic":
		m, err := vm.ParseMetric(*metric)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
			os.Exit(1)
		}
		p = sampling.NewDynamic(m, *sens, *intervalMul, *maxFunc)
	case "stratified":
		sp := sampling.NewStratified(*statSeed)
		if *strata != 0 {
			sp.Strata = *strata
		}
		if *samples != 0 {
			sp.Samples = *samples
		}
		if *conf != 0 {
			sp.Confidence = *conf
		}
		if *target != 0 {
			sp = sp.WithTarget(*target, *budget)
		}
		p = sp
	case "rankedset":
		rp := sampling.NewRankedSet(*statSeed)
		if *setSize != 0 {
			rp.SetSize = *setSize
		}
		if *cycles != 0 {
			rp.Cycles = *cycles
		}
		if *conf != 0 {
			rp.Confidence = *conf
		}
		if *target != 0 {
			rp = rp.WithTarget(*target, *budget)
		}
		p = rp
	default:
		fmt.Fprintf(os.Stderr, "dynsim: unknown policy %q\n", *policy)
		os.Exit(1)
	}

	// One runner cell per run, never retried: the runner checks that a
	// run the context cut short is not reported as a result.
	ropts := experiments.Options{
		Scale:       *scale,
		Benchmarks:  []string{spec.Name},
		Parallelism: 1,
		Retries:     -1,
		CkptStride:  *ckptStride,
	}

	// Observability is opt-in and inert: results are bit-identical with
	// or without it (check.ObsInvariance pins this).
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		trace := obs.NewTransitionTrace(obs.DefaultTraceCap)
		srv, err := obs.Serve(*metricsAddr, reg, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dynsim: serving metrics on http://%s/metrics\n", srv.Addr())
		ropts.Obs = reg
		ropts.Trace = trace
	}

	if *ckptStride != 0 {
		store, _ = ckpt.New(ckpt.Options{Obs: ropts.Obs}) // no Dir: no I/O to fail
		ropts.CkptStore = store
	} else {
		ropts.CkptOff = true
	}

	// Ctrl-C, SIGTERM, or the -timeout deadline stop the policy and its
	// baseline at the session's next Run-call boundary; a run cut short
	// prints nothing and exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ropts.Context = ctx

	r := experiments.NewRunner(ropts)
	res, err := r.Run(spec.Name, p)
	var base sampling.Result
	withBase := *baseline && *policy != "full"
	if err == nil && withBase {
		base, err = r.Run(spec.Name, sampling.FullTiming{})
	}
	if err != nil && ctx.Err() != nil {
		if ctx.Err() == context.DeadlineExceeded {
			fmt.Fprintf(os.Stderr, "dynsim: run exceeded -timeout %v\n", *timeout)
		} else {
			fmt.Fprintln(os.Stderr, "dynsim: interrupted")
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsim:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark      %s (ref input %s)\n", spec.Name, spec.RefInput)
	fmt.Printf("policy         %s\n", res.Policy)
	fmt.Printf("instructions   %d (paper budget %d G / scale %d)\n", res.Instructions, spec.PaperGInstr, *scale)
	fmt.Printf("estimated IPC  %.4f\n", res.EstIPC)
	if iv := res.CPIInterval; iv != nil {
		fmt.Printf("CPI estimate   %.4f ± %.4f (±%.1f%% at %.3g%% confidence)\n",
			iv.Point, iv.HalfWidth(), iv.RelHalfWidth()*100, iv.Confidence*100)
		if *target != 0 {
			fmt.Printf("error target   ±%.3g%%: met=%v\n", *target*100, res.TargetMet)
		}
	}
	fmt.Printf("timing samples %d\n", res.Samples)
	fmt.Printf("modelled time  %s (paper-equivalent %s)\n",
		hostcost.FormatDuration(res.Cost.Seconds),
		hostcost.FormatDuration(res.Cost.PaperSeconds))

	if withBase {
		fmt.Printf("full-timing IPC %.4f (%s paper-equivalent)\n",
			base.EstIPC, hostcost.FormatDuration(base.Cost.PaperSeconds))
		fmt.Printf("accuracy error %.2f%%\n", res.ErrorVs(base)*100)
		fmt.Printf("speedup        %.1fx\n", res.Speedup(base))
	}

	if store != nil {
		fmt.Printf("checkpoints    %s\n", store.Stats())
	}
}

// artifactPolicy returns the configuration of the full, smarts or
// simpoint policy that repro's figures report under the same name
// (experiments.BaselinePolicies): SMARTS's period comes from gzip's
// budget whatever the benchmark.
func artifactPolicy(name string, prof bool, scale int) sampling.Policy {
	want := map[string]string{
		"full":     sampling.FullTiming{}.Name(),
		"smarts":   sampling.SMARTS{}.Name(),
		"simpoint": simpoint.New(prof).Name(),
	}[name]
	for _, p := range experiments.BaselinePolicies(scale) {
		if p.Name() == want {
			return p
		}
	}
	panic("dynsim: no artifact configuration of policy " + name)
}

// flagError names the first flag value the run would ignore or silently
// replace — a usage error, not a default — or "" when there is none.
func flagError(scale int, conf float64) string {
	switch {
	case scale <= 0:
		return "-scale must be positive"
	case conf != 0 && (conf <= 0 || conf >= 1):
		return "-conf must lie strictly between 0 and 1 (0 = default 0.95)"
	}
	return ""
}
