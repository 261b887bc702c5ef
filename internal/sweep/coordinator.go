package sweep

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/obs"
)

// ErrStaleLease rejects a message carrying a lease that is unknown,
// expired, or superseded by a re-issue. The worker behind it is
// presumed dead; whatever it was doing, the cell's current (or next)
// leaseholder is the one whose completion counts.
var ErrStaleLease = errors.New("sweep: stale or expired lease")

// ErrIncompleteCell rejects a completion whose cell is missing journal
// records: a cell is complete only when every record its execution key
// produces (results, plus the SimPoint analysis where applicable) has
// been accepted. This is the exactly-once accounting backstop — a
// worker cannot mark work done that it never shipped.
var ErrIncompleteCell = errors.New("sweep: cell record set incomplete")

// ErrStaleEpoch rejects a message stamped with a coordinator epoch that
// is no longer current: the coordinator was restarted (rebuilding its
// state from the WAL) since the sender fetched its config. Unlike
// ErrStaleLease this is not about one lease — every lease the sender
// holds is dead, and the right response is to re-fetch /v1/config,
// adopt the new epoch, and re-claim.
var ErrStaleEpoch = errors.New("sweep: stale coordinator epoch")

// ErrWAL wraps write-ahead-log append failures: the mutation was NOT
// acknowledged and the caller should retry. Surfaced to workers as a
// 5xx, which the client maps to its retryable class.
var ErrWAL = errors.New("sweep: coordinator wal append failed")

// recordKey identifies one journal record for deduplication: executions
// are deterministic, so two records with equal keys hold equal values
// and either may be kept.
type recordKey struct {
	kind   string // "result" | "analysis"
	bench  string
	policy string // empty for analysis records
}

// cellState tracks one cell through pending → leased → done. A lease
// that expires returns the cell to pending (keeping any records a
// refused completion already delivered — they were produced by
// completed measurements and are deterministic, so they remain valid).
type cellState struct {
	cell       Cell
	done       bool
	leaseID    uint64 // 0 = not currently leased
	expiry     time.Time
	deliveries int // times leased so far
}

// Coordinator is the sweep's single point of truth: the lease state
// machine plus the accepted-record set. It is transport-agnostic and
// clock-explicit — every mutating method takes the current time — so
// the state machine is exhaustively table-testable without HTTP or
// sleeps. Server (http.go) is the wire adapter over it.
type Coordinator struct {
	mu      sync.Mutex
	cfg     Config
	cells   []Cell
	states  map[Cell]*cellState
	leases  map[uint64]*cellState // live leases by ID
	nextID  uint64
	records map[recordKey]experiments.JournalRecord
	stats   CoordStats
	ob      coordObs
	// on maps a worker ID to its latest grant: the benchmark Claim keeps
	// the worker on, and the lease whose expiry forgets it. Soft state:
	// never logged, empty after a restart.
	on map[string]grant

	// epoch numbers this coordinator incarnation (1 for an in-memory
	// coordinator; WAL-backed ones increment it per restart). Immutable
	// after construction.
	epoch uint64
	// wal, when non-nil, makes every lease grant, accepted record, and
	// completion durable before it is acknowledged.
	wal *jsonl.Log
}

// grant is the benchmark and lease of one worker's latest claim.
type grant struct {
	bench string
	lease uint64
}

// CoordStats counts coordinator activity; the equivalence harness
// asserts exactly-once accounting and kill non-vacuity from it.
type CoordStats struct {
	Cells       int    // total cells in the matrix
	Done        int    // cells completed (replayed, restored, or live)
	Leased      int    // cells currently leased
	Replayed    int    // cells pre-completed from a prior journal
	Restored    int    // cells pre-completed from the WAL of a killed incarnation
	Epoch       uint64 // this incarnation's epoch
	Claims      uint64 // leases issued
	Reissues    uint64 // leases expired and returned to pending
	Completions uint64 // successful Complete calls (one per cell per incarnation)
	StaleDrops  uint64 // heartbeat/complete rejections for stale leases
	EpochDrops  uint64 // messages rejected for carrying a dead incarnation's epoch
	Records     uint64 // journal records accepted
	DupRecords  uint64 // journal records dropped as duplicates
	WALErrors   uint64 // mutations refused because the WAL append failed
}

type coordObs struct {
	claims      *obs.Counter
	reissues    *obs.Counter
	completions *obs.Counter
	staleDrops  *obs.Counter
	records     *obs.Counter
	dupRecords  *obs.Counter
	pending     *obs.Gauge
	leased      *obs.Gauge
}

func newCoordObs(reg *obs.Registry) coordObs {
	return coordObs{
		claims:      reg.Counter("sweep_leases_issued_total"),
		reissues:    reg.Counter("sweep_leases_reissued_total"),
		completions: reg.Counter("sweep_cells_completed_total"),
		staleDrops:  reg.Counter("sweep_stale_messages_total"),
		records:     reg.Counter("sweep_records_accepted_total"),
		dupRecords:  reg.Counter("sweep_records_duplicate_total"),
		pending:     reg.Gauge("sweep_cells_pending"),
		leased:      reg.Gauge("sweep_cells_leased"),
	}
}

// NewCoordinator builds the coordinator for one sweep. prior, when
// non-nil, replays a previous (possibly partial) canonical journal:
// its records are accepted and every cell whose record set is already
// complete is marked done, so a resumed sweep leases out only the
// missing cells. reg may be nil.
func NewCoordinator(cfg Config, prior []experiments.JournalRecord, reg *obs.Registry) *Coordinator {
	c, _ := newCoordinator(cfg, prior, reg, nil, walState{epoch: 1})
	return c
}

// NewWALCoordinator builds a crash-safe coordinator whose lease grants,
// accepted records, and completions are logged to the write-ahead log at
// walPath before they are acknowledged. If the WAL already holds state
// from a killed incarnation it is replayed first: records are accepted,
// cells whose record sets survived are pre-completed (CoordStats.
// Restored), per-cell delivery counts and the lease-ID high-water mark
// carry over, and the epoch is bumped — so leases issued by the dead
// incarnation are rejected with ErrStaleEpoch/ErrStaleLease and the
// restarted sweep re-executes strictly fewer cells. prior optionally
// replays a canonical journal on top (the -out resume path from before
// the WAL existed; WAL state wins ties harmlessly — records dedupe).
func NewWALCoordinator(cfg Config, walPath string, prior []experiments.JournalRecord, reg *obs.Registry) (*Coordinator, error) {
	cfg.setDefaults()
	w, st, err := openWAL(walPath, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return newCoordinator(cfg, prior, reg, w, st)
}

// newCoordinator is the shared builder behind both constructors.
func newCoordinator(cfg Config, prior []experiments.JournalRecord, reg *obs.Registry,
	w *jsonl.Log, st walState) (*Coordinator, error) {
	cfg.setDefaults()
	c := &Coordinator{
		cfg:     cfg,
		cells:   cfg.Cells(),
		states:  make(map[Cell]*cellState),
		leases:  make(map[uint64]*cellState),
		records: make(map[recordKey]experiments.JournalRecord),
		on:      make(map[string]grant),
		ob:      newCoordObs(reg),
		epoch:   st.epoch,
		wal:     w,
		nextID:  st.nextID,
	}
	for _, cell := range c.cells {
		c.states[cell] = &cellState{cell: cell, deliveries: st.deliveries[cell]}
	}
	c.stats.Cells = len(c.cells)
	c.stats.Epoch = c.epoch

	// WAL records first, then the prior journal: identical executions
	// produce identical records, so order only decides which copy wins
	// the dedup — the bytes are the same either way.
	for _, recs := range [][]experiments.JournalRecord{st.records, prior} {
		for _, rec := range recs {
			_ = c.acceptLocked(rec, 0) // replay logs nothing, so nothing can fail
		}
	}
	restored := make(map[Cell]bool, len(st.completed))
	for _, cell := range st.completed {
		restored[cell] = true
	}
	for _, cell := range c.cells {
		// A cell is pre-completed when its full record set survived —
		// whether or not its completion entry did. (Completion implies a
		// complete record set, so the WAL's complete entries are a
		// subset of this check; they still distinguish Restored from
		// Replayed in the stats.)
		if c.completeSetLocked(cell) {
			c.states[cell].done = true
			c.stats.Done++
			if restored[cell] {
				c.stats.Restored++
			} else {
				c.stats.Replayed++
			}
		}
	}
	c.gaugesLocked()
	return c, nil
}

// Epoch returns this coordinator incarnation's epoch: 1 for an
// in-memory coordinator, incremented per restart for a WAL-backed one.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// CheckEpoch validates a message's claimed epoch: it must match this
// incarnation exactly, or the message is rejected with ErrStaleEpoch,
// telling the worker to re-fetch the config and re-claim. An unstamped
// message (epoch 0) matches none.
func (c *Coordinator) CheckEpoch(epoch uint64) error {
	if epoch == c.epoch {
		return nil
	}
	c.mu.Lock()
	c.stats.EpochDrops++
	c.mu.Unlock()
	return fmt.Errorf("%w: message epoch %d, coordinator epoch %d", ErrStaleEpoch, epoch, c.epoch)
}

// SetWALHook installs the sweep harness's per-append callback on the
// coordinator WAL (no-op without one); n counts entries appended by
// this incarnation. The hook runs after the entry is durable and must
// not call back into the coordinator.
func (c *Coordinator) SetWALHook(fn func(n uint64)) {
	if c.wal != nil {
		c.wal.SetHook(fn)
	}
}

// Kill simulates SIGKILL for the sweep harness: the WAL closes without
// sync and every later mutation fails, exactly as if the process died.
// The object must be abandoned; a successor may reopen the WAL path.
func (c *Coordinator) Kill() {
	if c.wal != nil {
		c.wal.Kill()
	}
}

// CloseWAL flushes and closes the WAL at clean shutdown (no-op for an
// in-memory coordinator).
func (c *Coordinator) CloseWAL() error {
	if c.wal == nil {
		return nil
	}
	return c.wal.Close()
}

// logWAL appends one entry when a WAL is attached; the zero error of an
// in-memory coordinator keeps call sites uniform.
func (c *Coordinator) logWAL(e walEntry) error {
	if c.wal == nil {
		return nil
	}
	if err := c.wal.Append(e); err != nil {
		c.stats.WALErrors++
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	return nil
}

// Config returns the sweep configuration workers must adopt.
func (c *Coordinator) Config() Config { return c.cfg }

// gaugesLocked refreshes the pending/leased gauges.
func (c *Coordinator) gaugesLocked() {
	c.ob.pending.Set(float64(c.stats.Cells - c.stats.Done - len(c.leases)))
	c.ob.leased.Set(float64(len(c.leases)))
}

// expireLocked sweeps every lease whose TTL elapsed back to pending.
// The cell keeps its delivery count (the next claim increments it) and
// any records its late holder already delivered; the holder, presumed
// dead, is no longer on the benchmark.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, st := range c.leases {
		if now.After(st.expiry) {
			delete(c.leases, id)
			st.leaseID = 0
			for w, g := range c.on {
				if g.lease == id {
					delete(c.on, w)
				}
			}
			c.stats.Reissues++
			c.ob.reissues.Inc()
			// Best-effort: an expiry lost to a crash only means the
			// successor replays a live grant from a dead epoch, and the
			// epoch bump orphans those anyway.
			c.logWAL(walEntry{Kind: "expire", Epoch: c.epoch, Lease: id})
		}
	}
}

// Claim leases one pending (unleased, incomplete) cell to a worker:
// locality first, matrix order within. All cells of a benchmark walk one
// trajectory (the machine's state is a function of the instruction
// count alone), so a benchmark kept with one worker has its checkpoints
// produced, deposited and uploaded once, and that worker's later cells
// hit its own memory tier; two workers on one benchmark each walk it
// cold and each upload every key. The cell chosen is the first in matrix
// order of the first kind there is: one of the worker's own benchmark
// (that of its latest grant); one of a benchmark no live lease holds
// and no other worker is on; one of a benchmark no live lease holds;
// any pending cell, so no claimant waits while work remains. Reading
// the lease table alone is not enough: a worker between a completion
// and its next claim holds no lease, so whoever claims first would take
// its benchmark, and two workers completing together would swap theirs.
// Which worker is on which benchmark is soft state — an expiry forgets
// the expired holder, a grant the WAL refuses is not remembered, and a
// restart starts empty — and a given call sequence yields the same
// grants every time. The order of claims does not reach the merge
// (Merged is a function of the record set), exactly-once completion, or
// re-issue on expiry.
//
// done reports the terminal state — every cell complete — and a
// (nil, false) return means everything is currently leased out: the
// worker should poll again, since a lease may yet expire.
func (c *Coordinator) Claim(worker string, now time.Time) (lease *Lease, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if c.stats.Done == c.stats.Cells {
		c.gaugesLocked()
		return nil, true
	}
	held := make(map[string]bool, len(c.leases))
	for _, st := range c.leases {
		held[st.cell.Bench] = true
	}
	own := c.on[worker].bench // "" names no benchmark
	taken := make(map[string]bool, len(c.on))
	for w, g := range c.on {
		if w != worker {
			taken[g.bench] = true
		}
	}
	rank := func(bench string) int {
		switch {
		case bench == own:
			return 0
		case held[bench]:
			return 3
		case taken[bench]:
			return 2
		}
		return 1
	}
	var st *cellState
	best := 4
	for _, cell := range c.cells {
		cand := c.states[cell]
		if cand.done || cand.leaseID != 0 {
			continue
		}
		if r := rank(cell.Bench); r < best {
			st, best = cand, r
			if r == 0 {
				break
			}
		}
	}
	if st == nil {
		c.gaugesLocked()
		return nil, false
	}
	c.nextID++
	st.leaseID = c.nextID
	st.expiry = now.Add(c.cfg.LeaseTTL)
	delivery := st.deliveries
	st.deliveries++
	c.leases[st.leaseID] = st
	if err := c.logWAL(walEntry{Kind: "grant", Epoch: c.epoch, Lease: st.leaseID, Cell: &st.cell, Delivery: delivery}); err != nil {
		// Not durable → not granted. Revert so the grant is never
		// acknowledged; the worker polls again (and, if the WAL died
		// because the coordinator did, soon learns that instead).
		delete(c.leases, st.leaseID)
		st.leaseID = 0
		st.deliveries--
		c.nextID--
		c.gaugesLocked()
		return nil, false
	}
	c.on[worker] = grant{bench: st.cell.Bench, lease: st.leaseID}
	c.stats.Claims++
	c.ob.claims.Inc()
	c.gaugesLocked()
	return &Lease{ID: st.leaseID, Cell: st.cell, TTL: c.cfg.LeaseTTL, Delivery: delivery}, false
}

// leaseLocked resolves a live, unexpired lease or fails with
// ErrStaleLease (counting the drop).
func (c *Coordinator) leaseLocked(id uint64, now time.Time) (*cellState, error) {
	c.expireLocked(now)
	st, ok := c.leases[id]
	if !ok {
		c.stats.StaleDrops++
		c.ob.staleDrops.Inc()
		return nil, fmt.Errorf("%w: lease %d", ErrStaleLease, id)
	}
	return st, nil
}

// Heartbeat extends a live lease's expiry by one TTL. A stale lease is
// rejected — the worker should abandon the cell; its current holder
// (or the next claim) owns it now.
func (c *Coordinator) Heartbeat(id uint64, now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.leaseLocked(id, now)
	if err != nil {
		return err
	}
	st.expiry = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Append accepts journal records under a live lease without completing
// its cell. Nothing in the sweep calls it — Complete is the one record
// path. It is kept for bench/ledger.go, which only a benchmark PR may
// edit, and goes with that call (like vm's `type BatchSink = Sink`).
func (c *Coordinator) Append(id uint64, recs []experiments.JournalRecord, now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.leaseLocked(id, now); err != nil {
		return err
	}
	return c.acceptAllLocked(id, recs)
}

// Complete accepts a cell's records and marks it done — the one way a
// record reaches the coordinator. It requires a live lease AND a complete
// record set for the cell (counting records shipped in this call):
// completion is an accounting claim, and the coordinator verifies it
// instead of trusting the worker. Late completions — the lease expired
// and the cell was (or will be) re-issued — are rejected; the records
// they carry are discarded, because the re-execution supplies identical
// ones.
func (c *Coordinator) Complete(id uint64, recs []experiments.JournalRecord, now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.leaseLocked(id, now)
	if err != nil {
		return err
	}
	if err := c.acceptAllLocked(id, recs); err != nil {
		return err
	}
	if !c.completeSetLocked(st.cell) {
		return fmt.Errorf("%w: %s", ErrIncompleteCell, st.cell)
	}
	// The completion entry carries the cell alongside the lease so replay
	// can resolve it even when the grant sat in a torn or rotated prefix.
	if err := c.logWAL(walEntry{Kind: "complete", Epoch: c.epoch, Lease: id, Cell: &st.cell}); err != nil {
		return err
	}
	delete(c.leases, id)
	st.leaseID = 0
	st.done = true
	c.stats.Done++
	c.stats.Completions++
	c.ob.completions.Inc()
	c.gaugesLocked()
	return nil
}

// acceptAllLocked accepts the records one delivery ships under a live
// lease, stopping at the first the WAL refuses.
func (c *Coordinator) acceptAllLocked(lease uint64, recs []experiments.JournalRecord) error {
	for _, rec := range recs {
		if err := c.acceptLocked(rec, lease); err != nil {
			return err
		}
	}
	return nil
}

// acceptLocked holds one record, deduplicating by identity. Only result
// and analysis records are journal-merged; anything else (e.g. a
// worker's metrics snapshot) is dropped here. A record arriving under a
// lease is logged before it is held, and only then: a key already held
// is already in the WAL (accepting follows a successful log) or in the
// prior journal it was replayed from, so a second delivery of a cell —
// after a worker kill, or a completion the WAL refused halfway — adds no
// record entry, and the WAL grows with the live record set rather than
// with the crash history. lease 0 is replay, which logs nothing.
func (c *Coordinator) acceptLocked(rec experiments.JournalRecord, lease uint64) error {
	if rec.Kind != "result" && rec.Kind != "analysis" {
		return nil
	}
	key := recordKey{kind: rec.Kind, bench: rec.Bench}
	if rec.Kind == "result" {
		key.policy = rec.Policy
	}
	if _, dup := c.records[key]; dup {
		c.stats.DupRecords++
		c.ob.dupRecords.Inc()
		return nil
	}
	if lease != 0 {
		if err := c.logWAL(walEntry{Kind: "record", Epoch: c.epoch, Lease: lease, Record: &rec}); err != nil {
			return err
		}
	}
	c.records[key] = rec
	c.stats.Records++
	c.ob.records.Inc()
	return nil
}

// completeSetLocked reports whether every record a cell's execution
// produces has been accepted.
func (c *Coordinator) completeSetLocked(cell Cell) bool {
	results, analysis := experiments.KeyRecordNames(cell.Policy)
	if analysis {
		if _, ok := c.records[recordKey{kind: "analysis", bench: cell.Bench}]; !ok {
			return false
		}
	}
	for _, name := range results {
		if _, ok := c.records[recordKey{kind: "result", bench: cell.Bench, policy: name}]; !ok {
			return false
		}
	}
	return true
}

// Done reports whether every cell has completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Done == c.stats.Cells
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Leased = len(c.leases)
	return st
}

// Merged folds the accepted records into canonical journal order: for
// each benchmark in configured order, for each cell in matrix order,
// the cell's analysis record (if any) followed by its results in
// KeyRecordNames order — the same analysis-before-results discipline
// the single-process journal keeps. The output is a pure function of
// the record set, so any two sweeps that completed the same matrix
// merge to byte-identical journals regardless of worker count, claim
// interleaving, or crash history. Cells with incomplete record sets
// are skipped entirely (a partial sweep merges to a partial journal a
// resumed coordinator replays).
func (c *Coordinator) Merged() []experiments.JournalRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []experiments.JournalRecord
	for _, cell := range c.cells {
		if !c.completeSetLocked(cell) {
			continue
		}
		results, analysis := experiments.KeyRecordNames(cell.Policy)
		if analysis {
			out = append(out, c.records[recordKey{kind: "analysis", bench: cell.Bench}])
		}
		for _, name := range results {
			out = append(out, c.records[recordKey{kind: "result", bench: cell.Bench, policy: name}])
		}
	}
	return out
}

// WriteJournal merges (see Merged) and atomically writes the canonical
// run journal to path.
func (c *Coordinator) WriteJournal(path string) error {
	return experiments.WriteJournalFile(path, c.cfg.Scale, c.Merged())
}
