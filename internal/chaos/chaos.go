// Package chaos explores seeded fault schedules against the distributed
// sweep service. Where check.SweepEquivalence injects faults at a
// handful of hand-picked sites, chaos generates whole *schedules* — a
// deterministic mix of worker kills at arbitrary deliveries,
// coordinator kill/restart at arbitrary WAL offsets (with optional WAL
// tail tears modelling the ack-before-fsync window of a host crash),
// network faults on the remote checkpoint tier, and disk faults — and
// runs each schedule as one full sweep over an httptest loopback, with
// the coordinator actually killed and restarted from its write-ahead
// log mid-sweep.
//
// Per schedule it asserts the repo's strongest invariants:
//
//   - the merged journal renders artifacts byte-identical to a
//     sequential fault-free run, executing zero cells (no lost records);
//   - the merged journal is byte-identical across every schedule;
//   - exactly-once completion accounting within tear-explained slack;
//   - re-execution count bounded by the kills the schedule fired;
//   - the schedule was non-vacuous: its deterministic fault kinds fired.
//
// Everything is a pure function of (seed, schedule index), so a failing
// schedule replays exactly from its seed.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/jsonl"
	"repro/internal/sweep"
)

// Options configures ExploreWith.
type Options struct {
	// Seed keys every schedule; schedule i draws its plan from
	// (Seed, i), so one seed names the whole exploration.
	Seed uint64
	// Schedules is how many fault schedules to run (default 8).
	Schedules int
	// Scale and Benchmarks configure the sweep and the sequential golden
	// run (defaults: 50_000 and {gzip} — six cells, enough WAL traffic
	// for every kill target while keeping a multi-schedule run fast).
	Scale      int
	Benchmarks []string
	// Workers is the worker count per sweep (default 3).
	Workers int
	// LeaseTTL/Poll mirror check.SweepOptions (defaults 300ms / 10ms).
	LeaseTTL time.Duration
	Poll     time.Duration
	// Timeout bounds one schedule's sweep (default 120s).
	Timeout time.Duration
	// Progress, when non-nil, receives per-schedule summary lines (and
	// worker progress when Verbose).
	Progress io.Writer
	// Verbose forwards worker progress lines to Progress.
	Verbose bool
}

func (o *Options) setDefaults() {
	if o.Schedules <= 0 {
		o.Schedules = 8
	}
	if o.Scale <= 0 {
		o.Scale = 50_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip"}
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 300 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 10 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
}

// Explore runs n seeded fault schedules (see package comment) and
// returns the first invariant violation, or nil when every schedule
// held. It is the diffcheck -chaos entry point.
func Explore(seed uint64, n int) error {
	return ExploreWith(Options{Seed: seed, Schedules: n})
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SchedulePlan draws schedule i's fault plan from the exploration seed
// — a pure function, so a schedule is reproducible from (seed, i)
// alone. Every schedule carries at least one deterministic fault
// source: three of four have coordinator kills (with WAL tears on half
// of those), and every fourth instead kills every cell's first
// delivery; network/disk fault rates vary independently on top.
func SchedulePlan(seed uint64, i int) faults.Plan {
	h := splitmix64(seed ^ splitmix64(uint64(i)*0x9e3779b97f4a7c15+1))
	p := faults.Plan{
		WorkerKill:   []float64{0, 0.5, 1.0}[(h>>24)%3],
		KillAttempts: 1,
	}
	if i%4 == 3 {
		// Coordinator-stable schedule: worker kills alone must hold the
		// invariants (and it pins that a WAL-backed coordinator with no
		// restarts behaves exactly like the in-memory one).
		p.WorkerKill = 1.0
	} else {
		p.CoordKills = 1 + int(h%2)
		p.CoordKillWindow = 3 + int((h>>8)%2)
		if (h>>16)%2 == 0 {
			p.WALTear = 1.0
		}
	}
	if (h>>32)%2 == 0 {
		p.NetGet, p.NetPut = 0.25, 0.25
	}
	if (h>>33)%2 == 0 {
		p.NetCorrupt = 0.3
	}
	if (h>>34)%2 == 0 {
		p.DiskRead, p.DiskWrite = 0.15, 0.15
	}
	return p
}

// ExploreWith runs the chaos exploration with explicit options.
func ExploreWith(o Options) error {
	o.setDefaults()

	// Sequential fault-free golden run: the bytes every schedule must
	// reproduce.
	goldenDir, err := os.MkdirTemp("", "chaos-golden-*")
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer os.RemoveAll(goldenDir)
	golden, err := renderSequential(o, filepath.Join(goldenDir, "ckpt"))
	if err != nil {
		return fmt.Errorf("chaos: sequential golden run: %w", err)
	}

	var refJournal []byte
	for i := 0; i < o.Schedules; i++ {
		plan := SchedulePlan(o.Seed, i)
		inj := faults.New(o.Seed+uint64(i)*7919, plan)
		res, err := runSchedule(o, inj, golden)
		if err != nil {
			return fmt.Errorf("chaos: schedule %d/%d: %w [%s]", i+1, o.Schedules, err, inj)
		}
		if refJournal == nil {
			refJournal = res.journal
		} else if !bytes.Equal(res.journal, refJournal) {
			return fmt.Errorf("chaos: schedule %d/%d: merged journal diverges across schedules [%s]\n%s",
				i+1, o.Schedules, inj, check.DiffSummary(refJournal, res.journal))
		}
		if err := res.nonVacuous(plan, inj); err != nil {
			return fmt.Errorf("chaos: schedule %d/%d: %w", i+1, o.Schedules, err)
		}
		if o.Progress != nil {
			fired := inj.Fired()
			fmt.Fprintf(o.Progress,
				"chaos: schedule %d/%d ok: %d incarnations, %d executions for %d cells, %d completions, %d restored [%s]\n",
				i+1, o.Schedules, res.incarnations, res.executions, res.cells,
				res.completions, res.restored, summarizeFired(fired))
		}
	}
	return nil
}

func summarizeFired(fired map[faults.Kind]uint64) string {
	inj := ""
	for _, k := range []faults.Kind{faults.CoordinatorKill, faults.WALTear, faults.WorkerKill} {
		if fired[k] > 0 {
			inj += fmt.Sprintf("%s=%d ", k, fired[k])
		}
	}
	var rest uint64
	for k, n := range fired {
		switch k {
		case faults.CoordinatorKill, faults.WALTear, faults.WorkerKill:
		default:
			rest += n
		}
	}
	return fmt.Sprintf("%sother=%d", inj, rest)
}

// renderSequential renders the artifact bundle in one process with no
// faults — the golden bytes.
func renderSequential(o Options, ckptDir string) ([]byte, error) {
	r := experiments.NewRunner(experiments.Options{
		Scale:      o.Scale,
		Benchmarks: o.Benchmarks,
		CkptDir:    ckptDir,
	})
	defer r.Close()
	var buf bytes.Buffer
	if err := experiments.RenderArtifacts(r, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// supervisor is the stable HTTP front the workers talk to across
// coordinator incarnations: the URL never changes, only the handler
// behind it. A nil handler answers 503 — the restart window, during
// which workers see ErrCoordinatorDown and back off.
type supervisor struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *supervisor) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *supervisor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "coordinator down (restarting)", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// scheduleResult aggregates one schedule's counters across coordinator
// incarnations and workers.
type scheduleResult struct {
	journal      []byte
	cells        int
	incarnations int
	executions   int    // measurements actually executed (memo hits excluded)
	completions  uint64 // acknowledged Complete calls, summed over incarnations
	reissues     uint64 // TTL re-issues, summed over incarnations
	restored     int    // cells pre-completed from the WAL, summed over restarts
	coordKills   uint64
	tears        uint64
	workerKills  uint64
}

// nonVacuous verifies the schedule exercised what it planned: the
// deterministic fault sources (coordinator kills; worker kills at rate
// 1) must have fired, and something must have fired overall.
func (r *scheduleResult) nonVacuous(plan faults.Plan, inj *faults.Injector) error {
	fired := inj.Fired()
	var total uint64
	for _, n := range fired {
		total += n
	}
	if total == 0 {
		return fmt.Errorf("vacuous schedule: no fault fired (plan %+v)", plan)
	}
	if plan.CoordKills > 0 && fired[faults.CoordinatorKill] == 0 {
		return fmt.Errorf("vacuous schedule: %d coordinator kills planned, none fired [%s]", plan.CoordKills, inj)
	}
	if plan.WorkerKill >= 1.0 && plan.KillAttempts > 0 && fired[faults.WorkerKill] == 0 {
		return fmt.Errorf("vacuous schedule: certain worker kills planned, none fired [%s]", inj)
	}
	return nil
}

// runSchedule executes one schedule: a full distributed sweep with the
// injector's kills applied — coordinator incarnations killed at WAL
// offsets and restarted from the log, workers killed at deliveries —
// then verifies artifacts, accounting, and re-execution bounds.
func runSchedule(o Options, inj *faults.Injector, golden []byte) (*scheduleResult, error) {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "coord.wal")

	// The coordinator-side checkpoint store is disk-backed in dir — like
	// the WAL, it survives coordinator restarts.
	store, err := ckpt.New(ckpt.Options{Dir: filepath.Join(dir, "ckpt")})
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{Scale: o.Scale, Benchmarks: o.Benchmarks, LeaseTTL: o.LeaseTTL}
	res := &scheduleResult{cells: len(cfg.Cells())}

	sup := &supervisor{}
	ts := httptest.NewServer(sup)
	defer ts.Close()

	// killCh carries the injector's "kill the coordinator now" verdicts
	// from the WAL-append hook to the supervisor loop. Buffered with
	// drop: one pending kill is enough, the rest of the schedule waits
	// for the next incarnation.
	killCh := make(chan struct{}, 1)
	var coord *sweep.Coordinator
	start := func() error {
		c, err := sweep.NewWALCoordinator(cfg, walPath, nil, nil)
		if err != nil {
			return err
		}
		c.SetWALHook(func(n uint64) {
			if inj.KillCoordinatorAt(n) {
				select {
				case killCh <- struct{}{}:
				default:
				}
			}
		})
		res.incarnations++
		res.restored += c.Stats().Restored
		coord = c
		sup.set(sweep.NewServer(c, store, nil, nil).Handler())
		return nil
	}
	if err := start(); err != nil {
		return nil, err
	}

	// Same kill-window discipline as check.SweepEquivalence: the
	// injector dooms a (cell, delivery); parity picks whether the worker
	// dies before executing or after its records reached the
	// coordinator.
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

	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()
	var progress io.Writer
	if o.Verbose {
		progress = o.Progress
	}

	var wg sync.WaitGroup
	errs := make([]error, o.Workers)
	stats := make([]sweep.WorkerStats, o.Workers)
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := sweep.NewClient(ts.URL, nil)
			cl.Faults = inj
			stats[i], errs[i] = sweep.RunWorker(sweep.WorkerOptions{
				Client:   cl,
				ID:       fmt.Sprintf("w%d", i),
				Context:  ctx,
				Poll:     o.Poll,
				Progress: progress,
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
		}(i)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()

	// Supervisor loop: on each kill verdict, take the front down (new
	// requests 503), kill the WAL (in-flight mutations fail unacked),
	// snapshot the dying incarnation's counters, optionally tear the WAL
	// tail, and restart from the log under a bumped epoch.
	addStats := func(st sweep.CoordStats) {
		res.completions += st.Completions
		res.reissues += st.Reissues
	}
supervise:
	for {
		select {
		case <-killCh:
			sup.set(nil)
			coord.Kill()
			addStats(coord.Stats())
			res.coordKills++
			if tear := inj.WALTearBytes(int(res.coordKills)); tear > 0 {
				if err := jsonl.Tear(walPath, tear); err != nil {
					return nil, fmt.Errorf("tearing wal: %w", err)
				}
				res.tears++
			}
			if err := start(); err != nil {
				return nil, fmt.Errorf("restarting coordinator: %w", err)
			}
		case <-workersDone:
			break supervise
		case <-ctx.Done():
			return nil, fmt.Errorf("schedule timed out after %v (coord %+v)", o.Timeout, coord.Stats())
		}
	}
	addStats(coord.Stats())
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if !coord.Done() {
		return nil, fmt.Errorf("workers exited with sweep incomplete: %+v", coord.Stats())
	}
	if err := coord.CloseWAL(); err != nil {
		return nil, fmt.Errorf("closing wal: %w", err)
	}
	for _, st := range stats {
		res.executions += st.Executions
		// Abandons counts leases actually dropped by the kill hook —
		// tighter than the injector's fired counter, which tallies every
		// verdict poll (the hook asks at both kill windows).
		res.workerKills += st.Abandons
	}

	// Exactly-once accounting, with tear-explained slack only: every
	// completion past one-per-cell must be bought by a WAL tear (the
	// lost record forces one re-completion), and completions may fall
	// short of the cell count only where a kill cut a worker's Complete
	// between its WAL entries and its acknowledgement (at most one
	// in-flight Complete per worker per kill).
	cells := uint64(res.cells)
	if res.completions > cells+res.tears {
		return nil, fmt.Errorf("exactly-once violated: %d completions for %d cells with %d tears",
			res.completions, res.cells, res.tears)
	}
	if min := int64(cells) - int64(res.coordKills)*int64(o.Workers); int64(res.completions) < min {
		return nil, fmt.Errorf("lost completions: %d acked for %d cells (%d coordinator kills, %d workers)",
			res.completions, res.cells, res.coordKills, o.Workers)
	}

	// Re-execution bound: every execution past one-per-cell needs a
	// cause — a worker kill, a lease orphaned by a coordinator kill (at
	// most one per worker per kill), a torn record, or a TTL re-issue.
	reexec := int64(res.executions) - int64(res.cells)
	if reexec < 0 {
		return nil, fmt.Errorf("%d executions for %d cells: cells completed without execution",
			res.executions, res.cells)
	}
	bound := int64(res.workerKills) + int64(res.coordKills)*int64(o.Workers) +
		int64(res.tears) + int64(res.reissues)
	if reexec > bound {
		return nil, fmt.Errorf("re-executions unbounded by kills: %d extra executions > %d explained (%d worker kills, %d coord kills × %d workers, %d tears, %d reissues)",
			reexec, bound, res.workerKills, res.coordKills, o.Workers, res.tears, res.reissues)
	}

	// Merge, then render from the merged journal alone: byte-identical
	// artifacts, zero executions — no record was lost to any crash.
	mergedPath := filepath.Join(dir, "merged.jsonl")
	if err := coord.WriteJournal(mergedPath); err != nil {
		return nil, err
	}
	res.journal, err = os.ReadFile(mergedPath)
	if err != nil {
		return nil, err
	}
	r := experiments.NewRunner(experiments.Options{
		Scale:      o.Scale,
		Benchmarks: o.Benchmarks,
		Journal:    mergedPath,
		CkptOff:    true,
	})
	defer r.Close()
	var buf bytes.Buffer
	if err := experiments.RenderArtifacts(r, &buf); err != nil {
		return nil, fmt.Errorf("render from merged journal: %w", err)
	}
	if n := r.Executions(); n != 0 {
		return nil, fmt.Errorf("rendering from the merged journal executed %d cells; records were lost", n)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		return nil, fmt.Errorf("artifacts diverge from sequential run\n%s",
			check.DiffSummary(golden, buf.Bytes()))
	}
	return res, nil
}
