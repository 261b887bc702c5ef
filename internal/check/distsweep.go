package check

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/jsonl"
	"repro/internal/sweep"
)

// DistSweep runs full distributed sweeps of one cell matrix over a real
// HTTP loopback: a coordinator with a disk-backed checkpoint store
// behind a stable front, Workers workers whose leases the injector
// kills, and — when WAL is set — a coordinator that the injector kills
// at write-ahead-log offsets and that is restarted from the log,
// optionally with a torn tail. It is plain configuration: what ties the
// runs of a series together is the previous result handed to Run.
// SweepEquivalence is the configuration without coordinator kills; the
// chaos harness drives the one with them.
type DistSweep struct {
	// Scale and Benchmarks define the cell matrix.
	Scale      int
	Benchmarks []string
	Workers    int
	// Injector decides every fault: worker kills, checkpoint upload
	// outages, and (with WAL) coordinator kills and tears.
	Injector *faults.Injector
	// WAL backs the coordinator with a write-ahead log and honours the
	// injector's coordinator-kill verdicts; without it the coordinator is
	// in memory and never restarts.
	WAL bool
	// Poll is the worker claim-poll interval.
	Poll time.Duration
	// Progress, when non-nil, receives worker progress lines.
	Progress io.Writer
	// Account checks the caller's accounting invariants on the finished
	// sweep's counters, before the journal is rendered: a broken count is
	// the more useful failure to report first.
	Account func(*DistSweepResult) error
}

// DistSweepResult aggregates one sweep's counters across coordinator
// incarnations and workers.
type DistSweepResult struct {
	Journal      []byte // the merged journal
	Cells        int
	Incarnations int
	Executions   int    // measurements actually executed (memo hits excluded)
	Completions  uint64 // acknowledged Complete calls, summed over incarnations
	Reissues     uint64 // TTL re-issues, summed over incarnations
	Restored     int    // cells pre-completed from the WAL, summed over restarts
	CoordKills   uint64
	Tears        uint64
	// Abandons counts leases actually dropped by the kill hook — tighter
	// than the injector's fired counter, which tallies every verdict poll
	// (the hook asks at both kill windows).
	Abandons uint64
	Coord    sweep.CoordStats // the last incarnation's counters
	Store    ckpt.Stats       // the coordinator-side checkpoint store

	// golden is the artifact bundle rendered in one process with no
	// faults, which this sweep's journal reproduced; with Journal, the
	// bytes the next run of the series must reproduce.
	golden []byte
}

const (
	// sweepLeaseTTL is short, so leases abandoned by killed workers and
	// orphaned by killed coordinators re-issue in test time.
	sweepLeaseTTL = 300 * time.Millisecond
	// sweepTimeout bounds one whole sweep: a deadlocked protocol fails
	// the check instead of hanging it.
	sweepTimeout = 120 * time.Second
)

// Run executes one sweep and verifies what every distributed sweep must
// satisfy: all workers exit cleanly with the sweep complete, the
// caller's accounting holds, the merged journal alone renders the
// sequential run's artifacts while executing nothing, and the faults
// the injector's plan makes certain did fire. prev is the previous run
// of a series over one cell matrix, nil for the first: the first run
// renders the sequential artifacts, every later one reuses them and
// must also reproduce prev's merged journal byte for byte — so every
// run of the series is held to the first.
func (d DistSweep) Run(prev *DistSweepResult) (*DistSweepResult, error) {
	inj := d.Injector
	dir, err := os.MkdirTemp("", "dist-sweep-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "coord.wal")

	res := &DistSweepResult{}
	if prev != nil {
		res.golden = prev.golden
	} else {
		res.golden, err = renderWith(experiments.Options{
			Scale:      d.Scale,
			Benchmarks: d.Benchmarks,
			Progress:   d.Progress,
		})
		if err != nil {
			return nil, fmt.Errorf("sequential run: %w", err)
		}
	}

	// The checkpoint store is disk-backed in dir: the shared remote tier,
	// which like the WAL survives coordinator restarts.
	store, err := ckpt.New(ckpt.Options{Dir: filepath.Join(dir, "ckpt")})
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{Scale: d.Scale, Benchmarks: d.Benchmarks, LeaseTTL: sweepLeaseTTL}
	res.Cells = len(cfg.Cells())

	// The stable HTTP address the workers talk to across coordinator
	// incarnations: the URL never changes, only the handler behind it.
	// No handler answers 503 — the restart window, during which workers
	// see ErrCoordinatorDown and back off.
	var front atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := front.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "coordinator down (restarting)", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	// killCh carries the injector's "kill the coordinator now" verdicts
	// from the WAL-append hook to the supervisor loop. Buffered with
	// drop: one pending kill is enough, the rest of the schedule waits
	// for the next incarnation.
	killCh := make(chan struct{}, 1)
	var coord *sweep.Coordinator
	start := func() error {
		c := sweep.NewCoordinator(cfg, nil, nil)
		if d.WAL {
			var err error
			if c, err = sweep.NewWALCoordinator(cfg, walPath, nil, nil); err != nil {
				return err
			}
		}
		c.SetWALHook(func(n uint64) { // never called without a WAL
			if inj.KillCoordinatorAt(n) {
				select {
				case killCh <- struct{}{}:
				default:
				}
			}
		})
		res.Incarnations++
		res.Restored += c.Stats().Restored
		coord = c
		h := sweep.NewServer(c, store, nil, nil).Handler()
		front.Store(&h)
		return nil
	}
	if err := start(); err != nil {
		return nil, err
	}

	// The kill hook: the injector decides whether a (cell, delivery) is
	// doomed, and the delivery's parity picks the crash window — before
	// the cell runs ("claimed": the lease dies holding nothing) or after
	// it ran ("appended": the classic crash between the execution and
	// the completion that would have carried its records).
	kill := func(cell sweep.Cell, delivery int, stage string) bool {
		if !inj.KillWorker(cell.String(), delivery) {
			return false
		}
		want := "appended"
		if delivery%2 == 1 {
			want = "claimed"
		}
		return stage == want
	}

	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()

	type exit struct {
		worker int
		stats  sweep.WorkerStats
		err    error
	}
	exits := make(chan exit, d.Workers) // one send per worker
	for i := 0; i < d.Workers; i++ {
		go func(i int) {
			cl := sweep.NewClient(ts.URL, nil)
			cl.Faults = inj
			st, err := sweep.RunWorker(sweep.WorkerOptions{
				Client:   cl,
				ID:       fmt.Sprintf("w%d", i),
				Context:  ctx,
				Poll:     d.Poll,
				Progress: d.Progress,
				Faults:   inj,
				Kill:     kill,
				// Restarts are fast (same process), so the backoff ladder
				// is short; the budget is generous because a worker may
				// meet several restart windows back to back.
				BackoffBase:     5 * time.Millisecond,
				BackoffMax:      250 * time.Millisecond,
				ReconnectBudget: 60,
				Seed:            inj.Seed() + uint64(i),
			})
			exits <- exit{i, st, err}
		}(i)
	}

	// Supervisor loop: on each kill verdict, take the front down (new
	// requests 503), kill the WAL (in-flight mutations fail unacked),
	// keep the dying incarnation's counters, optionally tear the WAL
	// tail, and restart from the log under a bumped epoch.
	addStats := func(st sweep.CoordStats) {
		res.Completions += st.Completions
		res.Reissues += st.Reissues
	}
	var workerErr error
	for running := d.Workers; running > 0; {
		select {
		case <-killCh:
			front.Store(nil)
			coord.Kill()
			addStats(coord.Stats())
			res.CoordKills++
			if tear := inj.WALTearBytes(int(res.CoordKills)); tear > 0 {
				if err := jsonl.Tear(walPath, tear); err != nil {
					return nil, fmt.Errorf("tearing wal: %w", err)
				}
				res.Tears++
			}
			if err := start(); err != nil {
				return nil, fmt.Errorf("restarting coordinator: %w", err)
			}
		case w := <-exits:
			running--
			res.Executions += w.stats.Executions
			res.Abandons += w.stats.Abandons
			if w.err != nil && workerErr == nil {
				workerErr = fmt.Errorf("worker %d: %w", w.worker, w.err)
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("sweep timed out after %v (coord %+v)", sweepTimeout, coord.Stats())
		}
	}
	res.Coord = coord.Stats()
	addStats(res.Coord)
	res.Store = store.Stats()
	if workerErr != nil {
		return nil, workerErr
	}
	if !coord.Done() {
		return nil, fmt.Errorf("workers exited with sweep incomplete: %+v", res.Coord)
	}
	if err := coord.CloseWAL(); err != nil {
		return nil, fmt.Errorf("closing wal: %w", err)
	}
	if err := d.Account(res); err != nil {
		return nil, err
	}

	// Merge, then render from the merged journal alone: byte-identical
	// artifacts, zero executions — the journal is complete, no record
	// was lost to any crash.
	mergedPath := filepath.Join(dir, "merged.jsonl")
	if err := coord.WriteJournal(mergedPath); err != nil {
		return nil, err
	}
	if res.Journal, err = os.ReadFile(mergedPath); err != nil {
		return nil, err
	}
	r := experiments.NewRunner(experiments.Options{
		Scale:      d.Scale,
		Benchmarks: d.Benchmarks,
		Journal:    mergedPath,
		CkptOff:    true,
	})
	defer r.Close()
	var buf bytes.Buffer
	if err := experiments.RenderArtifacts(r, &buf); err != nil {
		return nil, fmt.Errorf("render from merged journal: %w", err)
	}
	if n := r.Executions(); n != 0 {
		return nil, fmt.Errorf("rendering from the merged journal executed %d cells; journal incomplete", n)
	}
	if !bytes.Equal(buf.Bytes(), res.golden) {
		return nil, fmt.Errorf("artifacts diverge from sequential run\n%s", DiffSummary(res.golden, buf.Bytes()))
	}
	if prev != nil && !bytes.Equal(res.Journal, prev.Journal) {
		return nil, fmt.Errorf("merged journal diverges from the previous sweep's\n%s", DiffSummary(prev.Journal, res.Journal))
	}

	// Non-vacuity: the plan's deterministic fault sources — coordinator
	// kills, worker kills at rate 1 — must have fired.
	var certain []faults.Kind
	plan := inj.Plan()
	if plan.CoordKills > 0 {
		certain = append(certain, faults.CoordinatorKill)
	}
	if plan.WorkerKill >= 1 && plan.KillAttempts > 0 {
		certain = append(certain, faults.WorkerKill)
	}
	if err := requireFired("sweep", certain, []*faults.Injector{inj}); err != nil {
		return nil, err
	}
	return res, nil
}
