// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment function renders a text
// artifact comparable to the published one; the Runner executes and
// memoises (benchmark, policy) measurements, in parallel across
// benchmarks, so that the figures sharing data (5, 6, 7, 8, 9) pay for
// each simulation once.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jsonl"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Options configures a Runner.
type Options struct {
	// Scale divides paper instruction budgets (default 2000 — high
	// fidelity; raise it for faster, noisier runs).
	Scale int
	// Benchmarks restricts the suite (nil/empty = all 26).
	Benchmarks []string
	// Parallelism bounds concurrent benchmark simulations
	// (default NumCPU).
	Parallelism int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// CkptStore shares a checkpoint store across all sessions. When nil
	// (and CkptOff is false) the runner creates an in-memory one.
	// Results are bit-identical with the store on, off, or pre-warmed
	// (the cache-equivalence tests pin this); the store only shortens
	// host wall-clock.
	CkptStore *ckpt.Store
	// CkptOff disables checkpointing entirely.
	CkptOff bool
	// CkptStride adds a snapshot grid, one every CkptStride base
	// intervals (0: snapshots only where sessions leave fast mode).
	CkptStride uint64
	// VM overrides the VM configuration for every session the runner
	// builds. Host-side fields only (e.g. vm.Config.EventBatch) may
	// vary without changing any rendered artifact; the golden
	// batch-invariance test pins this.
	VM vm.Config

	// Context, when non-nil, is the base context for every measurement:
	// cancelling it (e.g. on SIGINT) stops the sweep promptly with the
	// cancellation error, never a recorded cell failure. nil means
	// context.Background(). It lives in Options rather than on each
	// call so the render functions (Figure2(r, w), ...) keep their
	// signatures while still honouring cancellation.
	Context context.Context
	// Timeout bounds each measurement attempt; a cell whose attempt
	// overruns is retried, then marked failed. 0 means no deadline —
	// except with Faults set, where it defaults to 5s so an injected
	// hang is always healable.
	Timeout time.Duration
	// Retries is how many extra attempts a failed measurement gets
	// (default 2; negative means none). Retries use exponential
	// backoff. Cancellation is never retried.
	Retries int
	// Faults, when non-nil, injects deterministic faults into the
	// measurements (panics, hangs, transient errors). Used by the
	// robustness harness; see internal/faults.
	Faults *faults.Injector
	// Journal, when non-empty, is the path of the append-only JSONL
	// run journal. Completed measurements are appended as they finish;
	// on construction the journal's valid prefix is replayed so an
	// interrupted RunAll resumes from completed cells. An unusable
	// journal path degrades to journal-less operation.
	Journal string

	// Obs mirrors the sweep into a metrics registry: cell lifecycle
	// counters here, plus everything the sessions, policies, cost meters
	// and the checkpoint store record (see internal/obs). Purely
	// observational — rendered artifacts are byte-identical with it
	// attached or nil. With a Journal, Close appends a final metrics
	// snapshot record.
	Obs *obs.Registry
	// Trace records execution-mode transitions across every session the
	// runner builds. Nil disables tracing.
	Trace *obs.TransitionTrace
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 2000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Faults != nil && o.Timeout <= 0 {
		// An injected hang is only healable with a deadline to trip.
		o.Timeout = 5 * time.Second
	}
}

// Runner memoises measurements across experiments and heals the
// failures a long sweep meets: each measurement attempt runs under a
// recover guard and an optional per-attempt deadline,
// transient failures are retried with backoff, and a cell that exhausts
// the ladder is recorded as a CellFailure instead of killing the sweep.
// With Options.Journal set, completed measurements are also appended to
// a crash-safe journal and replayed on construction, so an interrupted
// RunAll resumes instead of re-executing.
type Runner struct {
	opts Options

	mu         sync.Mutex
	results    map[string]map[string]sampling.Result // bench -> policy -> result
	analyses   map[string]simpoint.Analysis
	inflight   map[string]*sync.WaitGroup // bench+"\x00"+PolicyKeyOf
	failures   map[string]*CellFailure    // bench+"\x00"+PolicyKeyOf
	executions int
	jr         *jsonl.Log
	sem        chan struct{}

	// progMu serializes Options.Progress writes: progress lines are
	// emitted from every measurement goroutine concurrently, and an
	// io.Writer (a file, a bytes.Buffer) is not assumed to be safe for
	// concurrent use.
	progMu sync.Mutex

	// live counts measurements currently executing (including attempts
	// whose deadline already expired) and maxLive its high-water mark;
	// the concurrency-bound test asserts maxLive never exceeds
	// Parallelism.
	live    atomic.Int32
	maxLive atomic.Int32

	ob runnerObs
}

// runnerObs holds the sweep-lifecycle metric handles. All handles come
// from the nil-safe obs API, so with no registry attached every
// increment is a no-op and call sites need no guards.
type runnerObs struct {
	started  *obs.Counter // measurements actually executed
	memoHits *obs.Counter // Run calls served from memoisation
	retried  *obs.Counter // failed attempts that got another try
	failed   *obs.Counter // cells that exhausted the retry ladder
	healed   *obs.Counter // cells that succeeded after >=1 retry
	replayed *obs.Counter // journal records consumed on construction
	appends  *obs.Counter // journal records appended
	running  *obs.Gauge   // measurements executing right now
}

func newRunnerObs(reg *obs.Registry) runnerObs {
	return runnerObs{
		started:  reg.Counter("experiments_cells_started_total"),
		memoHits: reg.Counter("experiments_memo_hits_total"),
		retried:  reg.Counter("experiments_attempts_retried_total"),
		failed:   reg.Counter("experiments_cells_failed_total"),
		healed:   reg.Counter("experiments_cells_healed_total"),
		replayed: reg.Counter("experiments_journal_replayed_total"),
		appends:  reg.Counter("experiments_journal_appends_total"),
		running:  reg.Gauge("experiments_cells_running"),
	}
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	opts.setDefaults()
	if opts.CkptStore == nil && !opts.CkptOff {
		opts.CkptStore, _ = ckpt.New(ckpt.Options{Obs: opts.Obs}) // no Dir: no I/O to fail
	}
	r := &Runner{
		opts:     opts,
		results:  make(map[string]map[string]sampling.Result),
		analyses: make(map[string]simpoint.Analysis),
		inflight: make(map[string]*sync.WaitGroup),
		failures: make(map[string]*CellFailure),
		sem:      make(chan struct{}, opts.Parallelism),
		ob:       newRunnerObs(opts.Obs),
	}
	if opts.Journal != "" {
		jr, records, err := openJournal(opts.Journal, opts.Scale)
		if err != nil {
			// A broken journal path degrades to journal-less operation:
			// the sweep still runs, it just can't resume.
			r.progress("journal unavailable (%v); running without resume", err)
		} else {
			r.jr = jr
			r.ob.replayed.Add(uint64(len(records)))
			for _, rec := range records {
				switch {
				case rec.Kind == "result" && rec.Result != nil:
					if r.results[rec.Bench] == nil {
						r.results[rec.Bench] = make(map[string]sampling.Result)
					}
					r.results[rec.Bench][rec.Policy] = *rec.Result
				case rec.Kind == "analysis" && rec.Analysis != nil:
					r.analyses[rec.Bench] = *rec.Analysis
				}
			}
			if len(records) > 0 {
				r.progress("journal: resumed %d records from %s", len(records), opts.Journal)
			}
		}
	}
	return r
}

// Close flushes and closes the run journal (a no-op without one). Call
// it once the runner's artifacts are rendered; measurements that
// somehow complete later fail their journal appends cleanly. With an
// obs registry attached, a final metrics snapshot is appended first so
// the journal records what the sweep cost, not only what it produced;
// replay ignores the record (only "result"/"analysis" are consumed),
// so resumability is unaffected.
func (r *Runner) Close() error {
	if r.jr == nil {
		return nil
	}
	if r.opts.Obs != nil {
		r.appendRecord(JournalRecord{Kind: "metrics", Metrics: r.opts.Obs.Snapshot()})
	}
	return r.jr.Close()
}

// appendRecord appends one record to the run journal, when there is
// one. A failed append costs durability for that record only — the
// measurement is still in memory.
func (r *Runner) appendRecord(rec JournalRecord) {
	if r.jr != nil {
		if err := r.jr.Append(rec); err == nil {
			r.ob.appends.Inc()
		}
	}
}

// Executions returns how many measurements were actually executed (as
// opposed to served from memoisation or the journal). The crash/resume
// tests assert a resumed run executes strictly less.
func (r *Runner) Executions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executions
}

// Options returns the runner's effective options.
func (r *Runner) Options() Options { return r.opts }

// Benchmarks returns the benchmark subset in suite order.
func (r *Runner) Benchmarks() []string { return r.opts.Benchmarks }

// sessionOptions builds the core options for one measurement attempt.
// ctx is the attempt's context (base context plus per-attempt
// deadline): plumbing it into the session makes a timed-out attempt's
// simulation stop at its next Run-call boundary instead of burning a
// Parallelism slot to completion.
func (r *Runner) sessionOptions(ctx context.Context) core.Options {
	return core.Options{
		Scale:      r.opts.Scale,
		VM:         r.opts.VM,
		Ckpt:       r.opts.CkptStore,
		CkptStride: r.opts.CkptStride,
		Obs:        r.opts.Obs,
		Trace:      r.opts.Trace,
		Context:    ctx,
	}
}

// CkptStats reports the shared checkpoint store's counters; ok is false
// when checkpointing is off.
func (r *Runner) CkptStats() (ckpt.Stats, bool) {
	if r.opts.CkptStore == nil {
		return ckpt.Stats{}, false
	}
	return r.opts.CkptStore.Stats(), true
}

func (r *Runner) progress(format string, args ...interface{}) {
	if r.opts.Progress == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	fmt.Fprintf(r.opts.Progress, format+"\n", args...)
}

// store records a result under its policy name and appends it to the
// run journal (journal append failures cost durability, never results).
func (r *Runner) store(bench string, res sampling.Result) {
	r.mu.Lock()
	if r.results[bench] == nil {
		r.results[bench] = make(map[string]sampling.Result)
	}
	r.results[bench][res.Policy] = res
	r.mu.Unlock()
	r.appendRecord(JournalRecord{Kind: "result", Bench: bench, Policy: res.Policy, Result: &res})
}

// lookup returns a memoised result.
func (r *Runner) lookup(bench, policy string) (sampling.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[bench][policy]
	return res, ok
}

// CellRecords returns the journal records the measurement behind one
// execution key produced on a benchmark: its SimPoint analysis where the
// key has one, then its results in KeyRecordNames order — journal order.
// They are built from the memo, so they hold the values the journal was
// handed. A key whose measurement has not completed returns nil.
func (r *Runner) CellRecords(bench, key string) []JournalRecord {
	names, analysis := KeyRecordNames(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []JournalRecord
	if analysis {
		an, ok := r.analyses[bench]
		if !ok {
			return nil
		}
		out = append(out, JournalRecord{Kind: "analysis", Bench: bench, Analysis: &an})
	}
	for _, name := range names {
		res, ok := r.results[bench][name]
		if !ok {
			return nil
		}
		out = append(out, JournalRecord{Kind: "result", Bench: bench, Policy: name, Result: &res})
	}
	return out
}

// Run executes (or returns the memoised) measurement of a policy on a
// benchmark. Concurrent callers of the same pair share one execution.
// A cell that exhausted its retry ladder returns (and keeps returning)
// its *CellFailure; a cancelled Options.Context returns the
// cancellation error without recording a failure.
func (r *Runner) Run(bench string, p sampling.Policy) (sampling.Result, error) {
	key := bench + "\x00" + PolicyKeyOf(p)
	for {
		if res, ok := r.lookup(bench, p.Name()); ok {
			r.ob.memoHits.Inc()
			return res, nil
		}
		r.mu.Lock()
		if f, failed := r.failures[key]; failed {
			r.mu.Unlock()
			return sampling.Result{}, f
		}
		if wg, busy := r.inflight[key]; busy {
			r.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		r.inflight[key] = wg
		r.mu.Unlock()

		r.sem <- struct{}{}
		res, err := r.executeGuarded(bench, p, key)
		<-r.sem

		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		wg.Done()
		if err != nil {
			return sampling.Result{}, err
		}
		return res, nil
	}
}

// executeGuarded drives the retry ladder for one measurement: guarded
// attempts with optional deadlines, exponential backoff between them,
// and a recorded CellFailure when the ladder is exhausted. Context
// cancellation short-circuits everything and is never recorded — a
// resumed run must retry cells the user interrupted.
func (r *Runner) executeGuarded(bench string, p sampling.Policy, key string) (sampling.Result, error) {
	ctx := r.opts.Context
	attempts := r.opts.Retries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			backoff := 5 * time.Millisecond << uint(attempt-1)
			if backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return sampling.Result{}, ctx.Err()
			case <-time.After(backoff):
			}
		}
		if err := ctx.Err(); err != nil {
			return sampling.Result{}, err
		}
		res, err := r.attempt(ctx, bench, p, attempt)
		if err == nil {
			if attempt > 0 {
				r.ob.healed.Inc()
			}
			return res, nil
		}
		if ctx.Err() != nil {
			// The base context died (SIGINT), not the attempt deadline.
			return sampling.Result{}, ctx.Err()
		}
		lastErr = err
		if attempt+1 < attempts {
			r.ob.retried.Inc()
		}
		r.progress("retry %-14s %s: attempt %d/%d failed: %v",
			bench, p.Name(), attempt+1, attempts, err)
	}
	r.ob.failed.Inc()
	fail := &CellFailure{
		Bench:    bench,
		Policy:   PolicyKeyOf(p),
		Kind:     classifyAttempt(lastErr),
		Attempts: attempts,
		Msg:      lastErr.Error(),
	}
	r.mu.Lock()
	r.failures[key] = fail
	r.mu.Unlock()
	r.progress("FAILED %-12s %s: %s after %d attempts", bench, p.Name(), fail.Kind, attempts)
	return sampling.Result{}, fail
}

// attempt runs one measurement attempt on the caller's goroutine under
// a recover guard and the per-attempt deadline. The attempt context
// reaches the session, which stops at its next burst once the deadline
// trips, so a timed-out cell never keeps simulating beside its retry.
func (r *Runner) attempt(ctx context.Context, bench string, p sampling.Policy, attempt int) (res sampling.Result, err error) {
	var injected faults.Kind
	if r.opts.Faults != nil {
		injected = r.opts.Faults.RunFault(bench, PolicyKeyOf(p), attempt)
		if injected == faults.RunError {
			return sampling.Result{}, fmt.Errorf("%w: run-error %s/%s attempt %d",
				faults.ErrInjected, bench, PolicyKeyOf(p), attempt)
		}
	}
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = sampling.Result{}, fmt.Errorf("%w: %v\n%s", errPanic, v, debug.Stack())
		}
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("attempt deadline (%v) exceeded: %w", r.opts.Timeout, err)
		}
	}()
	switch injected {
	case faults.RunPanic:
		panic(fmt.Sprintf("injected fault: run-panic %s/%s attempt %d", bench, PolicyKeyOf(p), attempt))
	case faults.RunHang:
		// Model a wedged measurement: hold the attempt until its
		// deadline trips.
		<-ctx.Done()
		return sampling.Result{}, ctx.Err()
	}
	return r.execute(ctx, bench, p)
}

// noteLive tracks the number of concurrently-executing measurements and
// its high-water mark; the returned func undoes the increment. The
// concurrency-bound test asserts maxLive never exceeds Parallelism.
func (r *Runner) noteLive() func() {
	n := r.live.Add(1)
	for {
		m := r.maxLive.Load()
		if n <= m || r.maxLive.CompareAndSwap(m, n) {
			break
		}
	}
	r.ob.running.Set(float64(n))
	return func() {
		r.ob.running.Set(float64(r.live.Add(-1)))
	}
}

func (r *Runner) execute(ctx context.Context, bench string, p sampling.Policy) (sampling.Result, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return sampling.Result{}, err
	}
	defer r.noteLive()()
	r.ob.started.Inc()
	r.mu.Lock()
	r.executions++
	r.mu.Unlock()
	// SimPoint is special-cased: one execution produces both accounting
	// variants and the analysis for Table 2.
	if sp, ok := p.(simpoint.Policy); ok {
		return r.runSimPoint(ctx, spec, sp)
	}
	s := core.NewSession(spec, r.sessionOptions(ctx))
	res, err := p.Run(s)
	if err != nil {
		return sampling.Result{}, fmt.Errorf("experiments: %s on %s: %w", p.Name(), bench, err)
	}
	if ierr := s.Interrupted(); ierr != nil {
		// The attempt deadline cut the measurement short: the result is
		// partial and must not be memoised or journaled.
		return sampling.Result{}, ierr
	}
	r.store(bench, res)
	r.progress("done %-14s %s (ipc=%.4f, %d samples)", bench, res.Policy, res.EstIPC, res.Samples)
	return res, nil
}

// runSimPoint runs the SimPoint pipeline once (simpoint.Policy.RunBoth),
// storing both "SimPoint" and "SimPoint+prof" results plus the analysis,
// then returns the one that was asked for.
func (r *Runner) runSimPoint(ctx context.Context, spec workload.Spec, p simpoint.Policy) (sampling.Result, error) {
	s := core.NewSession(spec, r.sessionOptions(ctx))
	an, noProf, withProf, err := p.RunBoth(s)
	if err != nil {
		return sampling.Result{}, err
	}
	if ierr := s.Interrupted(); ierr != nil {
		// The deadline cut a pass short: the analysis is bogus or the
		// results partial, and neither may be memoised or journaled.
		return sampling.Result{}, ierr
	}

	// Memoise and journal the analysis before the results: a journal
	// torn between them must leave the results missing, not the
	// analysis. Replayed results without an analysis would let Table 2
	// read a zero analysis while Run() is satisfied from memo; replayed
	// analysis without results just re-executes the pipeline.
	r.mu.Lock()
	r.analyses[spec.Name] = an
	r.mu.Unlock()
	r.appendRecord(JournalRecord{Kind: "analysis", Bench: spec.Name, Analysis: &an})
	r.store(spec.Name, noProf)
	r.store(spec.Name, withProf)
	r.progress("done %-14s SimPoint (k=%d, ipc=%.4f)", spec.Name, an.K, noProf.EstIPC)

	if p.ChargeProfiling {
		return withProf, nil
	}
	return noProf, nil
}

// Analysis returns the memoised SimPoint analysis for a benchmark,
// running the SimPoint pipeline if needed.
func (r *Runner) Analysis(bench string) (simpoint.Analysis, error) {
	r.mu.Lock()
	an, ok := r.analyses[bench]
	r.mu.Unlock()
	if ok {
		return an, nil
	}
	if _, err := r.Run(bench, simpoint.New(false)); err != nil {
		return simpoint.Analysis{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.analyses[bench], nil
}

// Baseline returns the full-timing result for a benchmark, with the
// interval trace Figures 2 and 4 read.
func (r *Runner) Baseline(bench string) (sampling.Result, error) {
	return r.Run(bench, sampling.FullTiming{})
}

// RunAll executes a set of policies over the whole benchmark subset in
// parallel and returns benchmark -> policy name -> result. Cell
// failures do not abort the sweep: every other cell still completes,
// the failures stay queryable via Failures()/FailureFor, and rendering
// marks the holes explicitly. Only context cancellation (and other
// non-cell errors, e.g. an unknown benchmark name) aborts.
func (r *Runner) RunAll(policies []sampling.Policy) (map[string]map[string]sampling.Result, error) {
	type job struct {
		bench  string
		policy sampling.Policy
	}
	var jobs []job
	for _, b := range r.opts.Benchmarks {
		for _, p := range policies {
			jobs = append(jobs, job{b, p})
		}
	}
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			_, err := r.Run(j.bench, j.policy)
			errs <- err
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			continue
		}
		var cf *CellFailure
		if errors.As(err, &cf) {
			continue // recorded; the cell renders as FAILED
		}
		return nil, err
	}
	out := make(map[string]map[string]sampling.Result, len(r.opts.Benchmarks))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.opts.Benchmarks {
		m := make(map[string]sampling.Result, len(r.results[b]))
		for k, v := range r.results[b] {
			m[k] = v
		}
		out[b] = m
	}
	return out, nil
}

// Aggregate holds suite-level accuracy/speed for one policy.
type Aggregate struct {
	Policy string
	// MeanIPC is the arithmetic mean of per-benchmark IPC estimates.
	MeanIPC float64
	// MeanErrPct is the mean absolute relative IPC error vs full timing.
	MeanErrPct float64
	// MaxErrPct is the worst per-benchmark error.
	MaxErrPct float64
	// TotalSeconds is the summed modelled (paper-equivalent) host time.
	TotalSeconds float64
	// Speedup is total full-timing cost over total policy cost.
	Speedup float64
	// Samples is the summed number of timing measurements.
	Samples int
}

// AggregateFor computes suite-level numbers for one policy name from a
// results matrix.
func AggregateFor(results map[string]map[string]sampling.Result, benches []string, policy string) Aggregate {
	agg := Aggregate{Policy: policy}
	var baseUnits, polUnits float64
	n := 0
	for _, b := range benches {
		res, ok := results[b][policy]
		base, okb := results[b]["Full timing"]
		if !ok || !okb {
			continue
		}
		n++
		agg.MeanIPC += res.EstIPC
		e := res.ErrorVs(base) * 100
		agg.MeanErrPct += e
		if e > agg.MaxErrPct {
			agg.MaxErrPct = e
		}
		agg.TotalSeconds += res.Cost.PaperSeconds
		agg.Samples += res.Samples
		baseUnits += base.Cost.Units
		polUnits += res.Cost.Units
	}
	if n > 0 {
		agg.MeanIPC /= float64(n)
		agg.MeanErrPct /= float64(n)
	}
	if polUnits > 0 {
		agg.Speedup = baseUnits / polUnits
	}
	return agg
}
