package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mix"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// WorkerOptions configures one sweep worker.
type WorkerOptions struct {
	// Client talks to the coordinator (required).
	Client *Client
	// ID names the worker in claims and progress output.
	ID string
	// Context cancels the worker loop (default: background).
	Context context.Context
	// Poll is how long to wait between claims when every remaining cell
	// is leased elsewhere (default 200ms).
	Poll time.Duration
	// Progress receives human-readable progress lines.
	Progress io.Writer
	// Timeout/Retries configure the runner's per-attempt deadline and
	// retry ladder (see experiments.Options).
	Timeout time.Duration
	Retries int
	// Faults, when non-nil, injects deterministic faults into the
	// worker's measurements (panics, hangs, transient errors). Upload
	// faults on the remote tier are configured on the Client.
	Faults *faults.Injector
	// Kill, when non-nil, is the crash-injection hook: called at stage
	// "claimed" (lease held, cell not yet executed) and "appended" (cell
	// executed, completion — which carries its records — not yet sent;
	// the name dates from when records were streamed first). Returning
	// true makes the worker abandon the lease exactly as a killed
	// process would — heartbeats stop, the completion never arrives, and
	// the cell's lease expires into a re-issue.
	Kill func(cell Cell, delivery int, stage string) bool
	// Obs, when non-nil, receives worker/runner/store metrics.
	Obs *obs.Registry

	// BackoffBase/BackoffMax bound the exponential reconnect ladder the
	// worker climbs while the coordinator is unreachable (defaults 50ms
	// and 2s; tests shrink both). Each consecutive retryable failure
	// doubles the delay from Base up to Max, with deterministic seeded
	// jitter so a fleet of workers does not reconnect in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ReconnectBudget is how many consecutive retryable round-trip
	// failures (ErrCoordinatorDown, ErrBadResponse) the worker tolerates
	// before giving up on the sweep (default 8). Any success resets it.
	ReconnectBudget int
	// Seed keys the backoff jitter (combined with ID, so two workers
	// sharing a seed still spread out).
	Seed uint64
}

func (o *WorkerOptions) setDefaults() {
	if o.ID == "" {
		o.ID = "worker"
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.ReconnectBudget <= 0 {
		o.ReconnectBudget = 8
	}
}

// backoffDelay is the deterministic jittered exponential delay for the
// n-th consecutive retryable failure (0-based): base·2ⁿ capped at max,
// then scaled into [½d, d) by a hash of (seed, id, n) — pure, so a
// chaos schedule replays the exact same reconnect timeline every run.
func backoffDelay(seed uint64, id string, n int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	frac := float64(mix.Entry(seed, h.Sum64(), uint64(n))%1024) / 1024
	return d/2 + time.Duration(float64(d/2)*frac)
}

// retryableErr reports whether a coordinator round-trip failure is in
// the reconnect class: the coordinator may be down or mid-restart, and
// backing off then retrying (or re-claiming under a new epoch) is the
// correct response.
func retryableErr(err error) bool {
	return errors.Is(err, ErrCoordinatorDown) || errors.Is(err, ErrBadResponse)
}

// WorkerStats counts one worker's activity over a sweep.
type WorkerStats struct {
	Claims      uint64 // leases obtained
	Completions uint64 // cells this worker completed
	Abandons    uint64 // leases abandoned by the kill hook
	StaleDrops  uint64 // completions rejected as stale (another holder won)
	Failures    uint64 // cells whose execution failed (lease abandoned)
	Executions  int    // measurements actually executed (not memo hits)
}

// heartbeater keeps one lease alive from a background goroutine until
// stopped. Losing the race (the lease expired anyway) is harmless: the
// completion is rejected as stale and the cell is re-executed. Stop
// cancels the heartbeat context, which aborts any in-flight request —
// so Stop returns promptly (and the goroutine exits, leak-free) even
// when the coordinator vanished between the claim and the first beat
// and the request would otherwise sit in connect/retry limbo.
type heartbeater struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func startHeartbeat(cl *Client, id uint64, ttl time.Duration) *heartbeater {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heartbeater{cancel: cancel, done: make(chan struct{})}
	interval := ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				err := cl.Heartbeat(ctx, id)
				switch {
				case errors.Is(err, ErrStaleLease), errors.Is(err, ErrStaleEpoch):
					return // lease already lost; stop renewing
				case ctx.Err() != nil:
					return
				}
				// Transport failures keep ticking: the coordinator may be
				// mid-restart, and if the lease dies meanwhile the epoch
				// gate turns the next beat into a clean stop.
			}
		}
	}()
	return h
}

func (h *heartbeater) Stop() {
	h.cancel()
	<-h.done
}

// RunWorker executes one worker against a coordinator until the sweep
// completes (or the context is cancelled): fetch the shared config,
// build a runner whose checkpoint store uses the coordinator as its
// remote tier, then claim/execute/complete cells in a loop. The
// returned stats are this worker's view only; the coordinator's
// CoordStats holds the sweep-wide accounting.
func RunWorker(opts WorkerOptions) (st WorkerStats, _ error) {
	opts.setDefaults()
	if opts.Client == nil {
		return st, fmt.Errorf("sweep: worker %s: no client", opts.ID)
	}
	progress := func(format string, args ...interface{}) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "worker %s: "+format+"\n", append([]interface{}{opts.ID}, args...)...)
		}
	}
	// fails counts consecutive retryable round-trip failures (the config
	// fetch, claims and completions); any success resets it, so the
	// reconnect budget measures one continuous outage, not lifetime
	// flakiness.
	fails := 0
	downRetry := func(stage string, err error) (give bool, werr error) {
		fails++
		if fails > opts.ReconnectBudget {
			return true, fmt.Errorf("sweep: worker %s: %s: reconnect budget (%d) exhausted: %w",
				opts.ID, stage, opts.ReconnectBudget, err)
		}
		d := backoffDelay(opts.Seed, opts.ID, fails-1, opts.BackoffBase, opts.BackoffMax)
		progress("%s failed (%v); retry %d/%d in %v", stage, err, fails, opts.ReconnectBudget, d)
		sleepCtx(opts.Context, d)
		return false, nil
	}
	// The config fetch climbs the same ladder, so a worker may start
	// before the coordinator finishes binding.
	var cfg Config
	for {
		var err error
		if cfg, err = opts.Client.FetchConfig(opts.Context); err == nil {
			break
		}
		if !retryableErr(err) {
			return st, fmt.Errorf("sweep: worker %s: config: %w", opts.ID, err)
		}
		if give, werr := downRetry("config", err); give {
			return st, werr
		}
	}
	fails = 0

	policies := make(map[string]sampling.Policy)
	for _, p := range experiments.ArtifactPolicies(cfg.Scale) {
		key := experiments.PolicyKeyOf(p)
		if _, ok := policies[key]; !ok {
			policies[key] = p
		}
	}

	// The worker builds its own in-memory store with the coordinator as
	// its remote tier: every deposit is mirrored to it, and nothing is
	// read back. Without a Dir, New does no I/O and cannot fail.
	store, _ := ckpt.New(ckpt.Options{Remote: opts.Client, Obs: opts.Obs})

	runner := experiments.NewRunner(experiments.Options{
		Scale:       cfg.Scale,
		Benchmarks:  cfg.Benchmarks,
		Parallelism: 1, // one lease at a time; scale out by adding workers
		Progress:    opts.Progress,
		CkptStore:   store,
		Context:     opts.Context,
		Timeout:     opts.Timeout,
		Retries:     opts.Retries,
		Faults:      opts.Faults,
		Obs:         opts.Obs,
	})
	defer runner.Close()
	defer func() { st.Executions = runner.Executions() }()

	for {
		if err := opts.Context.Err(); err != nil {
			return st, err
		}
		lease, done, err := opts.Client.Claim(opts.Context, opts.ID)
		if err != nil {
			if !retryableErr(err) {
				return st, fmt.Errorf("sweep: worker %s: claim: %w", opts.ID, err)
			}
			if give, werr := downRetry("claim", err); give {
				return st, werr
			}
			continue
		}
		fails = 0
		if done {
			return st, nil
		}
		if lease == nil {
			// Everything pending is leased elsewhere; a lease may yet
			// expire back to us.
			sleepCtx(opts.Context, opts.Poll)
			continue
		}
		st.Claims++

		if opts.Kill != nil && opts.Kill(lease.Cell, lease.Delivery, "claimed") {
			// Simulated crash with the lease held and nothing done: no
			// heartbeats, no completion. The lease expires into a
			// re-issue.
			st.Abandons++
			progress("killed at claimed %s (delivery %d)", lease.Cell, lease.Delivery)
			continue
		}

		hb := startHeartbeat(opts.Client, lease.ID, lease.TTL)
		p, ok := policies[lease.Cell.Policy]
		var runErr error
		if !ok {
			runErr = fmt.Errorf("unknown policy key %q", lease.Cell.Policy)
		} else {
			_, runErr = runner.Run(lease.Cell.Bench, p)
		}

		if runErr != nil {
			hb.Stop()
			st.Failures++
			progress("cell %s failed: %v", lease.Cell, runErr)
			if err := opts.Context.Err(); err != nil {
				return st, err
			}
			// The lease is abandoned and will be re-issued; if the
			// failure is permanent the sweep cannot finish, which the
			// operator sees as a stuck /v1/status. Back off so a
			// deterministic failure does not spin.
			sleepCtx(opts.Context, opts.Poll)
			continue
		}

		if opts.Kill != nil && opts.Kill(lease.Cell, lease.Delivery, "appended") {
			// Simulated crash between the execution and the completion:
			// the coordinator never hears of the cell's records.
			hb.Stop()
			st.Abandons++
			progress("killed at appended %s (delivery %d)", lease.Cell, lease.Delivery)
			continue
		}

		err = opts.Client.Complete(opts.Context, lease.ID, runner.CellRecords(lease.Cell.Bench, lease.Cell.Policy))
		hb.Stop()
		switch {
		case err == nil:
			fails = 0
			st.Completions++
		case errors.Is(err, ErrStaleLease):
			// Our lease expired under us (e.g. a heartbeat lost a race
			// with a slow cell); the current holder re-executes and its
			// identical records win. Nothing to undo.
			st.StaleDrops++
			progress("stale completion for %s dropped", lease.Cell)
		case errors.Is(err, ErrStaleEpoch):
			// The coordinator restarted while we executed: every lease of
			// the old incarnation is dead. Re-claim under the new epoch
			// (the claim response carries it); the runner's memo makes the
			// re-execution free and Complete ships the records again, so
			// the restart costs one round-trip, not one cell.
			st.StaleDrops++
			progress("epoch changed under %s; re-claiming", lease.Cell)
		case retryableErr(err):
			// Coordinator down at completion time. The records are safe in
			// the runner's memo; back off, then loop into a fresh claim —
			// against the same incarnation our lease may even still be
			// live, but re-claiming is correct either way.
			if give, werr := downRetry("complete "+lease.Cell.String(), err); give {
				return st, werr
			}
		default:
			return st, fmt.Errorf("sweep: worker %s: complete %s: %w", opts.ID, lease.Cell, err)
		}
	}
}

// sleepCtx sleeps d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
