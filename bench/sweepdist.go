package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sweep"
)

// leaseProbe stamps a worker's lease stages through the public Kill
// hook (it never kills): claimed → appended is the cell as the worker
// saw it, and what is left of the pass is the worker idling or talking
// to the coordinator.
type leaseProbe struct {
	log    *spanLog
	parent uint64

	mu    sync.Mutex
	open  map[sweep.Cell]leaseStamp
	cells map[sweep.Cell]float64 // seconds
}

type leaseStamp struct {
	start time.Time
	span  uint64
}

func newLeaseProbe(log *spanLog) *leaseProbe {
	return &leaseProbe{log: log, open: make(map[sweep.Cell]leaseStamp), cells: make(map[sweep.Cell]float64)}
}

func (p *leaseProbe) kill(cell sweep.Cell, _ int, stage string) bool {
	switch stage {
	case "claimed":
		id := p.log.start(p.parent, "lease", cell.String())
		p.mu.Lock()
		p.open[cell] = leaseStamp{time.Now(), id}
		p.mu.Unlock()
	case "appended":
		p.mu.Lock()
		st, ok := p.open[cell]
		if ok {
			p.cells[cell] = time.Since(st.start).Seconds()
			delete(p.open, cell)
		}
		p.mu.Unlock()
		p.log.end(st.span)
	}
	return false
}

func (p *leaseProbe) metrics(out map[string]metric, wall time.Duration) {
	var ds []float64
	var busy, idle float64
	if p != nil {
		p.mu.Lock()
		for _, d := range p.cells {
			ds = append(ds, d)
			busy += d
		}
		p.mu.Unlock()
		idle = loadCPUs*wall.Seconds() - busy
	}
	out["sweep.cell.p50_s"] = metric{median(ds), "s"}
	out["sweep.cell.p90_s"] = metric{quantile(ds, 0.9), "s"}
	out["sweep.worker.busy_s"] = metric{busy, "s"}
	out["sweep.worker.idle_s"] = metric{idle, "s"}
}

// sweepStack is one distributed sweep's server side in this process: a
// WAL-backed coordinator and a disk-backed store (the workers' remote
// checkpoint tier) behind a loopback HTTP listener.
type sweepStack struct {
	dir   string
	cfg   sweep.Config
	store *ckpt.Store
	coord *sweep.Coordinator
	srv   *httptest.Server
}

// startSweepStack builds the stack under a fresh directory of root;
// wrap, when non-nil, goes around the server's handler.
func startSweepStack(root string, cfg sweep.Config, wrap func(http.Handler) http.Handler) (*sweepStack, error) {
	dir, err := os.MkdirTemp(root, "sweep-")
	if err != nil {
		return nil, err
	}
	s := &sweepStack{dir: dir, cfg: cfg}
	if s.store, err = ckpt.New(ckpt.Options{Dir: filepath.Join(dir, "ckpt")}); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	if s.coord, err = sweep.NewWALCoordinator(cfg, s.walPath(), nil, nil); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	handler := sweep.NewServer(s.coord, s.store, nil, nil).Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	s.srv = httptest.NewServer(handler)
	return s, nil
}

func (s *sweepStack) walPath() string { return filepath.Join(s.dir, "coord.wal") }

// runWorkers runs loadCPUs workers against the stack until the sweep is
// done and returns what went wrong, if anything.
func (s *sweepStack) runWorkers(ctx context.Context, seed uint64, hc *http.Client,
	kill func(sweep.Cell, int, string) bool, reg *obs.Registry) []string {
	errs := make([]error, loadCPUs)
	var wg sync.WaitGroup
	for i := 0; i < loadCPUs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sweep.RunWorker(sweep.WorkerOptions{
				Client:  sweep.NewClient(s.srv.URL, hc),
				ID:      fmt.Sprintf("w%d", i),
				Context: ctx,
				// A worker with nothing left to claim polls until the
				// other finishes; the default 200 ms would quantise the
				// pass time.
				Poll:    10 * time.Millisecond,
				Retries: -1,
				Kill:    kill,
				Obs:     reg,
				Seed:    seed,
			})
		}(i)
	}
	wg.Wait()
	var problems []string
	for i, err := range errs {
		if err != nil {
			problems = append(problems, fmt.Sprintf("worker %d: %v", i, err))
		}
	}
	st := s.coord.Stats()
	if st.Completions != uint64(st.Cells) {
		problems = append(problems, fmt.Sprintf("exactly-once violated: %d completions for %d cells", st.Completions, st.Cells))
	}
	if st.WALErrors > 0 {
		problems = append(problems, fmt.Sprintf("%d WAL errors", st.WALErrors))
	}
	return problems
}

// close stops the listener and the WAL and removes the stack's files.
func (s *sweepStack) close() error {
	s.srv.Close()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return errors.Join(s.coord.CloseWAL(), os.RemoveAll(s.dir))
}

// sweepDist runs the artifact policy matrix through the distributed
// path in one process: two workers against a sweepStack, then the
// journal merge and a render from the merged journal.
type sweepDist struct {
	benches []string
	scale   int
	seed    uint64
	tmpRoot string

	stack  *sweepStack
	probe  *httpProbe
	leases *leaseProbe
}

func (w *sweepDist) setupEvery() bool { return true }

func (w *sweepDist) matrix() ([]string, []sampling.Policy, int) {
	return w.benches, experiments.ArtifactPolicies(w.scale), w.scale
}

func (w *sweepDist) setup(ctx context.Context, tr *passTrace) error {
	if err := buildImages(w.benches, w.scale); err != nil {
		return err
	}
	// One discarded benchmark through a throwaway stack: the HTTP stack,
	// the WAL and the disk tier have all been exercised before the first
	// measured section.
	warm, err := startSweepStack(w.tmpRoot, sweep.Config{Scale: w.scale, Benchmarks: w.benches[:1]}, nil)
	if err != nil {
		return err
	}
	problems := warm.runWorkers(ctx, w.seed, nil, nil, nil)
	if err := warm.close(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("warm-up sweep: %v", problems)
	}

	var wrap func(http.Handler) http.Handler
	w.probe, w.leases = nil, nil
	if tr != nil {
		w.probe, w.leases = newHTTPProbe(tr.log), newLeaseProbe(tr.log)
		wrap = w.probe.middleware
	}
	w.stack, err = startSweepStack(w.tmpRoot, sweep.Config{Scale: w.scale, Benchmarks: w.benches}, wrap)
	return err
}

func (w *sweepDist) pass(ctx context.Context, tr *passTrace) (passResult, error) {
	var out passResult
	var hc *http.Client
	var kill func(sweep.Cell, int, string) bool
	if tr != nil {
		w.probe.parent, w.leases.parent = tr.span, tr.span
		hc = &http.Client{Timeout: 5 * time.Minute, Transport: w.probe}
		kill = w.leases.kill
	}
	out.problems = w.stack.runWorkers(ctx, w.seed, hc, kill, tr.registry())
	if err := ctx.Err(); err != nil {
		return out, err
	}

	log, parent := tr.spans()
	id := log.start(parent, "merge", "")
	merged := filepath.Join(w.stack.dir, "merged.jsonl")
	err := w.stack.coord.WriteJournal(merged)
	log.end(id)
	if err != nil {
		return out, err
	}
	id = log.start(parent, "render", "")
	r := experiments.NewRunner(experiments.Options{Scale: w.scale, Benchmarks: w.benches, Journal: merged, CkptOff: true, Context: ctx})
	err = experiments.RenderArtifacts(r, io.Discard)
	executed := r.Executions()
	r.Close()
	log.end(id)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("render from the merged journal: %v", err))
	}
	if executed != 0 {
		out.problems = append(out.problems, fmt.Sprintf("rendering from the merged journal executed %d cells", executed))
	}

	// One cell per execution key; a key's first record carries its
	// instruction count (both SimPoint variants are one execution).
	byName := make(map[sweep.Cell]sampling.Result)
	for _, rec := range w.stack.coord.Merged() {
		if rec.Kind == "result" && rec.Result != nil {
			byName[sweep.Cell{Bench: rec.Bench, Policy: rec.Policy}] = *rec.Result
		}
	}
	for _, cell := range w.stack.cfg.Cells() {
		names, _ := experiments.KeyRecordNames(cell.Policy)
		res, ok := byName[sweep.Cell{Bench: cell.Bench, Policy: names[0]}]
		wall := 0.0
		if w.leases != nil {
			wall = w.leases.cells[cell]
		}
		out.add(cellResult{Bench: cell.Bench, Policy: cell.Policy, Res: res, WallS: wall, Failed: !ok})
	}
	return out, nil
}

func (w *sweepDist) finish(tr *passTrace, _ *passResult, wall time.Duration, layer map[string]metric) error {
	if w.stack == nil {
		return nil
	}
	if tr != nil {
		ss := w.stack.store.Stats()
		walBytes := int64(0)
		if fi, err := os.Stat(w.stack.walPath()); err == nil {
			walBytes = fi.Size()
		}
		sweepLayerMetrics(layer, w.probe, w.leases, wall, w.stack.coord.Stats(), ss, walBytes)
		// The workers' stores are private to RunWorker; their counters
		// reach us through the registry they share.
		c := func(name string) uint64 { return tr.reg.Counter(name).Value() }
		ckptMetrics(layer, c("ckpt_store_hits_total"), c("ckpt_store_misses_total"), c("ckpt_store_puts_total"),
			c("ckpt_store_dup_puts_total"), c("ckpt_store_remote_puts_total"))
		layer["ckpt.store.entries"] = metric{float64(ss.DiskEntries), "count"}
		layer["ckpt.store.mb"] = metric{float64(ss.Bytes) / (1 << 20), "MB"}
	}
	size, err := dirSize(w.tmpRoot)
	err = errors.Join(err, w.stack.close())
	w.stack = nil
	if err == nil && size > maxTempBytes {
		err = fmt.Errorf("sweep_dist: temporary files reached %d MB, over the %d MB cap", size>>20, maxTempBytes>>20)
	}
	return err
}

func (w *sweepDist) verify(_ context.Context, last *passResult) (float64, []cellResult, []string, error) {
	// Ground truth is each benchmark's own "Full timing" cell.
	return meanErrPct(last.cells, last.cells), nil, nil, nil
}
