// Command bench is the repository's one measurement harness: four named
// workloads with the same five end-to-end metrics, a traced pass and a
// layer ledger for the per-layer numbers, output verification, and a
// comparison of two result files against the bounds in BENCHMARK.json.
//
// Usage (from the repository root):
//
//	go run ./bench                         all workloads, -reps runs each, then a traced run each
//	go run ./bench -only ds_fast -reps 3   a subset
//	go run ./bench -quick                  small sizes, seconds not minutes
//	go run ./bench -compare A.json B.json  compare two result files
//	go run ./bench -workload ds_fast -seed 1 -seconds 20 -trace 0
//	                                       one run in this process (what the
//	                                       acceptance driver invokes)
//
// See README.md in this directory for the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit, so every deferred clean-up
// (temporary directories, child processes) runs on every path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run this one workload in this process and print the result line")
		seed         = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 0, "how long one run measures (default 20, with -quick 0.5)")
		trace        = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
		report       = fs.String("report", "", "with -workload: also write the full run report to this file")
		reps         = fs.Int("reps", 5, "runs per workload (at least 3)")
		only         = fs.String("only", "", "comma-separated workloads to run (default all)")
		quick        = fs.Bool("quick", false, "small sizes: scale divisors x20, 1 rep, 3-benchmark sweep")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for result.json, span files and temporary state")
		compare      = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		allowSim     = fs.Bool("allow-sim-change", false, "with -compare: accept a differing sim_fingerprint")
		specPath     = fs.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		*seconds = 20
		if *quick {
			*seconds = 0.5
		}
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, *specPath, fs.Arg(0), fs.Arg(1), *allowSim)

	case *workloadName != "":
		rep, err := runWorkload(ctx, runConfig{Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: *outDir})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			if ctx.Err() != nil {
				return 130
			}
			return 1
		}
		if *report != "" {
			if err := writeJSON(*report, rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		printRun(stdout, rep)
		line, err := contractLine(rep)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			return 1
		}
		return 0
	}

	names := workloadNames
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	if *quick {
		*reps = 1
	} else if *reps < 3 {
		fmt.Fprintln(stderr, "bench: -reps must be at least 3")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := orchestration{
		Workloads: names, Seed: *seed, Seconds: *seconds, Reps: *reps, Quick: *quick, OutDir: *outDir,
		Run: childRunner(self, stderr),
	}
	res, err := o.run(ctx, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if res.failed() {
		return 1
	}
	return 0
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childRunner runs each run in a fresh child process (this binary,
// re-executed), so peak RSS and CPU time are per run and one run's heap
// never shapes the next. The child is killed when ctx is cancelled.
func childRunner(self string, stderr io.Writer) func(context.Context, runConfig) (*runReport, error) {
	return func(ctx context.Context, cfg runConfig) (*runReport, error) {
		tmp, err := os.MkdirTemp(cfg.OutDir, "report-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		reportPath := filepath.Join(tmp, "run.json")
		traceFlag := "0"
		if cfg.Trace {
			traceFlag = "1"
		}
		args := []string{"-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", traceFlag,
			"-out", cfg.OutDir, "-report", reportPath}
		if cfg.Quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = io.Discard // the report file carries everything
		cmd.Stderr = stderr
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // let it remove its temp root
		cmd.WaitDelay = 10 * time.Second
		runErr := cmd.Run()
		data, err := os.ReadFile(reportPath)
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s child: %w", cfg.Workload, runErr)
			}
			return nil, err
		}
		var rep runReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s child report: %w", cfg.Workload, err)
		}
		return &rep, nil // an incorrect run exits non-zero but still reports
	}
}

// orchestration is the full invocation: every workload Reps times
// untraced, then once traced.
type orchestration struct {
	Workloads []string
	Seed      uint64
	Seconds   float64
	Reps      int
	Quick     bool
	OutDir    string
	// Run performs one run: a child process from main, in-process from
	// the package's test.
	Run func(context.Context, runConfig) (*runReport, error)
}

// workloadResult aggregates one workload's runs.
type workloadResult struct {
	Scale          int                `json:"scale"`
	Ops            int                `json:"ops"`
	FailedOps      int                `json:"failed_ops"`
	SimFingerprint string             `json:"sim_fingerprint"`
	Problems       []string           `json:"problems,omitempty"`
	PassS          float64            `json:"pass_s"`
	EndToEnd       map[string]summary `json:"end_to_end"`
	PerLayer       map[string]metric  `json:"per_layer"`
	SpanFile       string             `json:"span_file"`
}

// result is bench/out/result.json.
type result struct {
	Date      string                     `json:"date"`
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Reps      int                        `json:"reps"`
	Seconds   float64                    `json:"seconds"`
	Quick     bool                       `json:"quick"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *result) failed() bool {
	for _, w := range r.Workloads {
		if w.FailedOps > 0 {
			return true
		}
	}
	return false
}

func (o orchestration) run(ctx context.Context, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	sz := fullSizes
	if o.Quick {
		sz = sz.quick()
	}
	host := collectHost(true)
	host.GOMAXPROCS = loadCPUs // what the runs use, whatever this process has
	res := &result{
		Date: time.Now().UTC().Format(time.RFC3339), Host: host, Seed: o.Seed, Reps: o.Reps,
		Seconds: o.Seconds, Quick: o.Quick, Sizes: sz, Workloads: make(map[string]*workloadResult),
	}
	if host.Degraded {
		fmt.Fprintf(stdout, "host_degraded: %d CPU(s) for a %d-CPU load shape; every number is still produced\n", host.NumCPU, loadCPUs)
	}
	for _, name := range o.Workloads {
		wr := &workloadResult{EndToEnd: make(map[string]summary)}
		res.Workloads[name] = wr
		values := make(map[string][]float64)
		units := make(map[string]string)
		var passS []float64
		for rep := 0; rep <= o.Reps; rep++ {
			traced := rep == o.Reps // the traced run comes last
			r, err := o.Run(ctx, runConfig{Workload: name, Seed: o.Seed, Seconds: o.Seconds, Trace: traced, Quick: o.Quick, OutDir: o.OutDir})
			if err != nil {
				return nil, err
			}
			wr.Scale = r.Scale
			wr.Ops += r.Ops
			wr.FailedOps += r.FailedOps
			wr.Problems = append(wr.Problems, r.Problems...)
			passS = append(passS, r.PassS)
			switch {
			case wr.SimFingerprint == "":
				wr.SimFingerprint = r.SimFingerprint
			case wr.SimFingerprint != r.SimFingerprint:
				wr.Problems = append(wr.Problems, fmt.Sprintf("run %d: sim_fingerprint %s differs from run 0's %s", rep, r.SimFingerprint, wr.SimFingerprint))
				wr.FailedOps = wr.Ops
			}
			if traced {
				wr.PerLayer = r.Metrics
				wr.SpanFile = r.SpanFile
				continue
			}
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(stdout, "%s run %d/%d: %.1f Minstr/s, %d passes of %.2f s\n", name, rep+1, o.Reps, r.Metrics["minstr_per_s"].Value, r.Passes, r.PassS)
		}
		wr.PassS = median(passS)
		for k, v := range values {
			wr.EndToEnd[k] = summarize(units[k], v)
		}
		printWorkload(stdout, name, wr)
	}
	path := filepath.Join(o.OutDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return res, nil
}

// printWorkload prints one workload's end-to-end metrics with median,
// quartiles and sample count, then its per-layer metrics.
func printWorkload(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s  scale=%d ops=%d failed_ops=%d sim_fingerprint=%s\n", name, wr.Scale, wr.Ops, wr.FailedOps, wr.SimFingerprint)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "   %-20s %12s %12s %12s %3s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
	for _, k := range endToEnd {
		s, ok := wr.EndToEnd[k]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-20s %12.6g %12.6g %12.6g %3d  %s\n", k, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	names := make([]string, 0, len(wr.PerLayer))
	for k := range wr.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   per-layer (one traced run + ledger)\n")
	for _, k := range names {
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", k, wr.PerLayer[k].Value, wr.PerLayer[k].Unit)
	}
	// The ledger's event-generation and timing-core rates should
	// compose into the rate the sessions saw in timing mode.
	ev, det := wr.PerLayer["vm.event.minstr_per_s"].Value, wr.PerLayer["timing.detail.minstr_per_s"].Value
	busy, instr := wr.PerLayer["core.mode.timing.busy_s"].Value, wr.PerLayer["core.mode.timing.instr"].Value
	if ev > 0 && det > 0 && busy > 0 {
		composed, seen := 1/(1/ev+1/det), instr/busy/1e6
		fmt.Fprintf(w, "   check: 1/(1/vm.event + 1/timing.detail) = %.1f Minstr/s, core.mode.timing saw %.1f Minstr/s (%+.0f %%; expected within 10 %%)\n",
			composed, seen, (composed/seen-1)*100)
	}
}
