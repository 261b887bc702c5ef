package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run: one workload, measured for Seconds in this
// process, so that peak RSS and CPU time are the run's own.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Quick    bool
	OutDir   string // span files land here
}

// runReport is everything one run produced. The acceptance contract's
// result line is a projection of it (see contractLine).
type runReport struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	Seconds  float64 `json:"seconds"`
	Scale    int     `json:"scale"`
	Passes   int     `json:"passes"`
	// PassS is the median length of a measured section, PassRates each
	// section's throughput in Minstr/s.
	PassS     float64   `json:"pass_s"`
	PassRates []float64 `json:"pass_minstr_per_s"`

	Correct   bool     `json:"correct"`
	Ops       int      `json:"ops"`
	FailedOps int      `json:"failed_ops"`
	Problems  []string `json:"problems,omitempty"`
	// SimFingerprint folds every cell's EstIPC bits, instruction count,
	// sample count and modelled cost of one pass; all passes of a run
	// must agree, and a speed-only change must leave it identical.
	SimFingerprint string `json:"sim_fingerprint"`

	Metrics  map[string]metric `json:"metrics"`
	SpanFile string            `json:"span_file,omitempty"`
	Host     hostInfo          `json:"host"`
}

// endToEnd names the five metrics every workload reports, in print
// order. BENCHMARK.json fixes their bounds.
var endToEnd = []string{"minstr_per_s", "cpu_s_per_ginstr", "peak_rss_mb", "setup_s", "ipc_accuracy_pct"}

// runWorkload performs one run in this process.
func runWorkload(ctx context.Context, cfg runConfig) (*runReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loadCPUs))
	sz := fullSizes
	if cfg.Quick {
		sz = sz.quick()
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	// All disk state lives under one root, removed on every exit path
	// (the caller's signal handler cancels ctx, which unwinds to here).
	tmpRoot, err := os.MkdirTemp(cfg.OutDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)

	w, err := newBench(cfg.Workload, cfg.Seed, sz, tmpRoot)
	if err != nil {
		return nil, err
	}
	_, _, scale := w.matrix()
	rep := &runReport{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Quick: cfg.Quick, Seconds: cfg.Seconds,
		Scale: scale, Metrics: make(map[string]metric), Host: collectHost(false),
	}

	var log *spanLog
	var runSpan uint64
	if cfg.Trace {
		log = newSpanLog(cfg.Workload)
		runSpan = log.start(0, "run", "")
	}

	// A traced run alternates traced and untraced passes, so the tracing
	// overhead is measured inside one process on interleaved samples.
	const minPasses = 2
	primings := 1
	if !w.setupEvery() {
		primings = sz.Primings
	}
	var (
		setupS, rateS, cpuS, wallS, wallPlain, wallTraced []float64
		measured                                          time.Duration
		last, lastTraced                                  *passResult
		fingerprint                                       uint64
		layers                                            []map[string]metric
	)
	for pass := 0; ; pass++ {
		var tr *passTrace
		if cfg.Trace && pass%2 == 0 {
			tr = newPassTrace(log)
		}
		if pass == 0 || w.setupEvery() {
			n := 1
			if pass == 0 {
				n = primings
			}
			for i := 0; i < n; i++ {
				runtime.GC() // a set-up's garbage is not the next one's cost
				id := log.start(runSpan, "setup", "")
				t0 := time.Now()
				err := w.setup(ctx, tr)
				setupS = append(setupS, time.Since(t0).Seconds())
				log.end(id)
				if err != nil {
					w.finish(nil, nil, 0, nil)
					return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
				}
			}
		}
		if tr != nil {
			tr.span = log.start(runSpan, "pass", "")
		}
		cpu0, t0 := cpuTime(), time.Now()
		res, err := w.pass(ctx, tr)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if tr != nil {
			log.end(tr.span)
		}
		var layer map[string]metric
		if tr != nil {
			layer = make(map[string]metric)
		}
		if ferr := w.finish(tr, &res, wall, layer); err == nil {
			err = ferr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", cfg.Workload, pass, err)
		}

		measured += wall
		wallS = append(wallS, wall.Seconds())
		if res.instr > 0 { // else every cell failed, and the run with them
			rateS = append(rateS, float64(res.instr)/wall.Seconds()/1e6)
			cpuS = append(cpuS, cpu.Seconds()/(float64(res.instr)/1e9))
		}
		rep.Ops += len(res.cells)
		rep.FailedOps += res.failed
		rep.Problems = append(rep.Problems, res.problems...)
		if fp := res.fingerprint(); pass == 0 {
			fingerprint = fp
		} else if fp != fingerprint {
			rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d: sim_fingerprint %016x differs from pass 0's %016x", pass, fp, fingerprint))
		}
		if tr != nil {
			wallTraced = append(wallTraced, wall.Seconds())
			coreLayerMetrics(tr, &res, layer)
			cellTimes(&res, layer)
			layers = append(layers, layer)
			lastTraced = &res
		} else {
			wallPlain = append(wallPlain, wall.Seconds())
		}
		last = &res

		// Stop at the pass count that lands nearest the requested time.
		if pass+1 >= minPasses && measured.Seconds()+0.5*median(wallS) >= cfg.Seconds {
			break
		}
	}
	rssMB := peakRSSMB() // before verification, which is not the workload
	rep.Passes, rep.PassRates, rep.PassS = len(wallS), rateS, median(wallS)
	rep.SimFingerprint = fmt.Sprintf("%016x", fingerprint)

	id := log.start(runSpan, "verify", "")
	errPct, truth, problems, err := w.verify(ctx, last)
	log.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.Workload, err)
	}
	rep.Problems = append(rep.Problems, problems...)

	if !cfg.Trace {
		// The host's interference is one-sided and comes in stretches of
		// several seconds: it only ever makes a pass slower. The fast
		// quartile of a run's passes therefore estimates the undisturbed
		// speed far more steadily than their median does.
		rep.Metrics["minstr_per_s"] = metric{quantile(rateS, 0.75), "Minstr/s"}
		rep.Metrics["cpu_s_per_ginstr"] = metric{quantile(cpuS, 0.25), "s/Ginstr"}
		rep.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}
		rep.Metrics["setup_s"] = metric{quantile(setupS, 0.25), "s"}
		// Accuracy rather than error, so the metric is never zero: on
		// detail_full, its own ground truth, the error is 0 by construction.
		rep.Metrics["ipc_accuracy_pct"] = metric{100 - errPct, "%"}
	} else {
		if err := tracedMetrics(ctx, rep, w, layers, lastTraced, truth, wallPlain, wallTraced); err != nil {
			return nil, err
		}
		id := log.start(runSpan, "ledger", "")
		ledger, err := runLedger(ctx, sz, tmpRoot, log, id)
		log.end(id)
		if err != nil {
			return nil, err
		}
		for k, v := range ledger {
			rep.Metrics[k] = v
		}
		log.end(runSpan)
		rep.SpanFile = filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".jsonl")
		if err := log.writeFile(rep.SpanFile); err != nil {
			return nil, err
		}
	}

	if len(rep.Problems) > 0 {
		// A broken invariant fails the whole run, not one cell.
		rep.FailedOps = rep.Ops
	}
	rep.Correct = rep.FailedOps == 0
	return rep, nil
}

// contractLine renders the one-line result the acceptance driver reads:
// exactly the keys correct, attempted, failed and metrics.
func contractLine(rep *runReport) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Ops, rep.FailedOps, rep.Metrics})
}

// printRun writes a run's metrics by name and unit, for people.
func printRun(w io.Writer, rep *runReport) {
	fmt.Fprintf(w, "%s seed=%d scale=%d passes=%d pass=%.2fs ops=%d failed_ops=%d sim_fingerprint=%s\n",
		rep.Workload, rep.Seed, rep.Scale, rep.Passes, rep.PassS, rep.Ops, rep.FailedOps, rep.SimFingerprint)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}
