// Command repro regenerates the tables and figures of "Combining
// Simulation and Virtualization through Dynamic Sampling" (ISPASS 2007).
//
// Usage:
//
//	repro [-scale N] [-bench gzip,mcf,...] [-only table1,tableci,fig5,...] [-parallel N] [-q]
//
// The workload scale divides the paper's instruction budgets; 2000 (the
// default) runs the full suite in a few minutes on a multicore host.
//
// With -out DIR, completed measurements are appended to a crash-safe
// run journal under DIR as they finish. Ctrl-C (or SIGTERM) stops the
// sweep cleanly, flushes the journal, and exits nonzero; rerunning with
// the same -out resumes from the completed cells instead of starting
// over. -timeout bounds each measurement attempt and -retries bounds
// how often a failed one is retried; a cell that exhausts the ladder
// renders as an explicit FAILED marker instead of aborting the run.
//
// Distributed sweeps shard the (benchmark × policy) cell matrix across
// machines:
//
//	repro -serve :8080 -out run/            # coordinator
//	repro -worker http://host:8080          # one per core/machine
//
// The coordinator leases cells to workers (re-issuing leases whose
// heartbeats stop), serves warm checkpoints to every worker over the
// same HTTP surface, folds the workers' records into the canonical run
// journal, and — once every cell is accounted for exactly once —
// renders the same artifacts, byte-for-byte, as a sequential run.
// Interrupting the coordinator journals the completed cells; rerunning
// with the same -out leases out only the missing ones. -lease-ttl
// tunes crash-detection latency.
//
// The coordinator is crash-safe beyond clean interrupts: every lease
// grant, accepted record, and cell completion is written to a
// write-ahead log (DIR/coord.wal) before it is acknowledged, so a
// coordinator killed with SIGKILL mid-sweep and restarted against the
// same -out resumes exactly-once — acknowledged completions are never
// re-executed, and surviving workers reconnect with backoff, detect
// the new coordinator epoch, and re-claim their in-flight cells.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sweep"
)

type experiment struct {
	name string
	desc string
	run  func(r *experiments.Runner, w io.Writer) error
}

func main() {
	scale := flag.Int("scale", 2000, "workload scale divisor (paper instructions / scale)")
	bench := flag.String("bench", "", "comma-separated benchmark subset (default: all 26)")
	only := flag.String("only", "all", "comma-separated experiments: table1,table2,tableci,fig2..fig9")
	parallel := flag.Int("parallel", 0, "concurrent simulations (default: NumCPU)")
	quiet := flag.Bool("q", false, "suppress per-run progress output")
	csvDir := flag.String("csv", "", "also export figure data as CSV files into this directory")
	ckptStride := flag.Uint64("ckpt-stride", 0, "checkpoint deposit stride in base intervals (0 = auto)")
	noCkpt := flag.Bool("no-ckpt", false, "disable the warm-start checkpoint cache")
	out := flag.String("out", "", "directory for the crash-safe run journal; rerunning with the same -out resumes completed measurements")
	timeout := flag.Duration("timeout", 0, "per-measurement-attempt deadline (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts for a failed measurement (0 = default 2, negative = none)")
	faultSeed := flag.Uint64("faults", 0, "inject deterministic faults with this seed (0 = off; robustness testing)")
	serveAddr := flag.String("serve", "", "run as sweep coordinator on this address (e.g. :8080); requires -out, renders artifacts once every cell completes")
	workerURL := flag.String("worker", "", "run as sweep worker against this coordinator URL (e.g. http://host:8080); ignores experiment flags")
	workerID := flag.String("worker-id", "", "worker name in claims and logs (default: worker-<pid>)")
	leaseTTL := flag.Duration("lease-ttl", 0, "coordinator lease TTL before a silent worker's cell is re-issued (default 30s)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json and /transitions on this address during the sweep (e.g. 127.0.0.1:9090)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerURL != "" && *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "repro: -serve and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *workerURL != "" {
		os.Exit(runSweepWorker(ctx, *workerURL, *workerID, *timeout, *retries, *faultSeed, *metricsAddr, *quiet))
	}

	opts := experiments.Options{
		Scale:       *scale,
		Parallelism: *parallel,
		CkptStride:  *ckptStride,
		CkptOff:     *noCkpt,
		Context:     ctx,
		Timeout:     *timeout,
		Retries:     *retries,
	}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *faultSeed != 0 {
		opts.Faults = faults.New(*faultSeed, faults.DefaultPlan())
	}
	if *out != "" {
		opts.Journal = filepath.Join(*out, "journal.jsonl")
	}
	// Observability is opt-in and inert: rendered artifacts are
	// byte-identical with or without it (check.ObsArtifactInvariance).
	// With -out, Runner.Close appends the final metrics snapshot to the
	// run journal.
	if *metricsAddr != "" {
		opts.Obs = obs.NewRegistry()
		opts.Trace = obs.NewTransitionTrace(obs.DefaultTraceCap)
		srv, err := obs.Serve(*metricsAddr, opts.Obs, opts.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: serving metrics on http://%s/metrics\n", srv.Addr())
	}
	if *serveAddr != "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "repro: -serve requires -out (the merged run journal lives there)")
			os.Exit(2)
		}
		if code := runSweepServe(ctx, *serveAddr, opts, *leaseTTL, *noCkpt); code != 0 {
			os.Exit(code)
		}
		// The merged journal now sits at opts.Journal; fall through to
		// the normal render path, which replays it without executing
		// anything — artifacts come out byte-identical to a sequential
		// run by construction.
	}

	r := experiments.NewRunner(opts)
	defer r.Close()

	all := []experiment{
		{"table1", "timing simulator parameters", func(r *experiments.Runner, w io.Writer) error { return experiments.Table1(w) }},
		{"table2", "benchmark characteristics", experiments.Table2},
		{"tableci", "CPI confidence intervals (stratified & ranked-set sampling)", experiments.TableCI},
		{"fig2", "IPC vs VM statistic correlation (perlbmk)", experiments.Figure2},
		{"fig3", "sampling scheme schematics", experiments.Figure3},
		{"fig4", "SimPoint vs Dynamic Sampling phases (perlbmk)", experiments.Figure4},
		{"fig5", "accuracy vs speed", experiments.Figure5},
		{"fig6", "IPC per policy", experiments.Figure6},
		{"fig7", "simulation time per policy", experiments.Figure7},
		{"fig8", "IPC per benchmark", experiments.Figure8},
		{"fig9", "simulation time per benchmark", experiments.Figure9},
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		want[strings.TrimSpace(n)] = true
	}
	ran := 0
	for _, e := range all {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran++
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(r, os.Stdout); err != nil {
			r.Close() // flush the journal before exiting
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "repro: interrupted during %s\n", e.name)
				if *out != "" {
					fmt.Fprintf(os.Stderr, "repro: completed measurements are journaled; resume by rerunning with the same -out %s\n", *out)
				}
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "repro: no experiment matches -only=%s\n", *only)
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		err := experiments.WriteAllCSV(r, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name))
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Printf("CSV data written to %s\n", *csvDir)
	}

	if st, ok := r.CkptStats(); ok && !*quiet {
		fmt.Fprintf(os.Stderr, "checkpoint store: %s\n", st)
	}
	if fs := r.Failures(); len(fs) != 0 {
		fmt.Fprintf(os.Stderr, "repro: %d measurement(s) failed after retries and are marked FAILED above\n", len(fs))
		r.Close()
		os.Exit(3)
	}
}

// runSweepWorker joins the sweep at the coordinator URL, claims and
// executes cells until the coordinator reports the sweep done, and
// exits. The coordinator owns the journal and the artifacts; a worker
// only executes leased cells and ships their records back.
func runSweepWorker(ctx context.Context, url, id string, timeout time.Duration,
	retries int, faultSeed uint64, metricsAddr string, quiet bool) int {
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	wo := sweep.WorkerOptions{
		Client:  sweep.NewClient(url, nil),
		ID:      id,
		Context: ctx,
		Timeout: timeout,
		Retries: retries,
	}
	if !quiet {
		wo.Progress = os.Stderr
	}
	if faultSeed != 0 {
		inj := faults.New(faultSeed, faults.DefaultPlan())
		wo.Faults = inj
		wo.Client.Faults = inj
	}
	if metricsAddr != "" {
		wo.Obs = obs.NewRegistry()
		srv, err := obs.Serve(metricsAddr, wo.Obs, nil) // a worker records no transitions
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: serving metrics on http://%s/metrics\n", srv.Addr())
	}
	st, err := sweep.RunWorker(wo)
	if err != nil {
		if errors.Is(err, context.Canceled) || ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "repro: worker %s interrupted (%d cells executed); the coordinator will re-issue its lease\n",
				id, st.Executions)
			return 130
		}
		fmt.Fprintf(os.Stderr, "repro: worker %s: %v\n", id, err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "repro: worker %s done: %d claims, %d completions, %d executions\n",
			id, st.Claims, st.Completions, st.Executions)
	}
	return 0
}

// runSweepServe runs the coordinator side of a distributed sweep: it
// leases the cell matrix to HTTP workers, serves the shared checkpoint
// tier, and folds the returned records into the canonical run journal
// at opts.Journal. Returns 0 once every cell is accounted for, 130 on
// interrupt (the partial journal is written so a rerun resumes), 1 on
// error.
func runSweepServe(ctx context.Context, addr string, opts experiments.Options,
	ttl time.Duration, noCkpt bool) int {
	prior, err := experiments.ReadJournal(opts.Journal, opts.Scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 1
	}
	cfg := sweep.Config{Scale: opts.Scale, Benchmarks: opts.Benchmarks, LeaseTTL: ttl}
	// The write-ahead log beside the journal makes the coordinator
	// crash-safe beyond clean interrupts: a SIGKILLed coordinator
	// restarted with the same -out replays coord.wal, restores every
	// acknowledged completion (even those not yet folded into the
	// journal), and re-leases only the unfinished cells under a new
	// epoch that in-flight workers detect and re-claim against.
	coord, err := sweep.NewWALCoordinator(cfg, filepath.Join(filepath.Dir(opts.Journal), "coord.wal"), prior, opts.Obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 1
	}
	defer coord.CloseWAL()

	// The coordinator-side in-memory store backs the shared checkpoint
	// tier; with -no-ckpt the endpoints answer 503 and workers run from
	// scratch.
	var store *ckpt.Store
	if !noCkpt {
		store, _ = ckpt.New(ckpt.Options{Obs: opts.Obs}) // no Dir: no I/O to fail
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 1
	}
	srv := &http.Server{Handler: sweep.NewServer(coord, store, opts.Obs, opts.Trace).Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	st := coord.Stats()
	fmt.Fprintf(os.Stderr, "repro: sweep coordinator on http://%s (epoch %d) — %d cells (%d journaled, %d restored from WAL); start workers with -worker http://%s\n",
		ln.Addr(), st.Epoch, st.Cells, st.Replayed, st.Restored, ln.Addr())

	writeJournal := func() bool {
		if err := coord.WriteJournal(opts.Journal); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return false
		}
		return true
	}
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	lastDone := st.Done
	for !coord.Done() {
		select {
		case <-ctx.Done():
			st = coord.Stats()
			writeJournal()
			fmt.Fprintf(os.Stderr, "repro: interrupted with %d/%d cells complete; journaled — resume by rerunning with the same -out\n",
				st.Done, st.Cells)
			return 130
		case <-ticker.C:
		}
		if st = coord.Stats(); opts.Progress != nil && st.Done != lastDone {
			lastDone = st.Done
			fmt.Fprintf(opts.Progress, "sweep: %d/%d cells complete (%d leased)\n", st.Done, st.Cells, st.Leased)
		}
	}
	if !writeJournal() {
		return 1
	}
	// Linger briefly before the deferred shutdown so a worker sleeping
	// through the final completion wakes to a live /v1/claim and learns
	// the sweep is done, rather than hitting connection-refused.
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
	}
	if opts.Progress != nil {
		st = coord.Stats()
		fmt.Fprintf(opts.Progress, "sweep complete: %d cells (%d replayed, %d leases reissued); merged journal at %s\n",
			st.Cells, st.Replayed, st.Reissues, opts.Journal)
	}
	return 0
}
