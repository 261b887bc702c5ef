// Package faults is a deterministic, seed-driven fault injector for the
// robustness harness. It simulates the partial failures a production-
// scale experiment sweep meets — disk read/write/fsync errors and
// torn or bit-flipped bytes in the checkpoint disk tier, snapshot-decode
// corruption, and per-(benchmark, policy) run failures (panics, hangs,
// transient errors) — without any real flaky hardware.
//
// Every decision is a pure function of (seed, fault kind, site key,
// per-site sequence number), so a schedule is reproducible from its seed
// alone and, crucially, independent of goroutine interleaving: two runs
// of the same parallel sweep draw identical verdicts at every site even
// though the sites are visited in different global orders.
//
// The injector only produces *healable* classes of damage when the plan
// keeps run-level faults below the runner's retry budget: disk-tier
// faults always degrade to cache misses (the store re-executes), and
// corrupted checkpoint bytes are caught by the snapshot digest footer.
// check.FaultEquivalence pins the resulting contract — under any such
// schedule the rendered artifacts are byte-identical to a fault-free
// run; faults may only cost wall-clock, never bits.
package faults

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind names one injectable fault class.
type Kind string

const (
	// DiskRead fails a checkpoint disk-tier open/read outright.
	DiskRead Kind = "disk-read"
	// DiskWrite fails a checkpoint disk-tier write outright.
	DiskWrite Kind = "disk-write"
	// DiskSync fails the fsync before a checkpoint file is committed.
	DiskSync Kind = "disk-sync"
	// CorruptRead flips or truncates bytes while a checkpoint is read,
	// so the snapshot digest (or a structural length check) must catch it.
	CorruptRead Kind = "corrupt-read"
	// TornWrite silently drops the tail of a checkpoint file while it is
	// written — the classic torn write a crash mid-write leaves behind.
	TornWrite Kind = "torn-write"
	// RunPanic panics a (benchmark, policy) measurement attempt.
	RunPanic Kind = "run-panic"
	// RunHang blocks a measurement attempt until its deadline expires.
	RunHang Kind = "run-hang"
	// RunError fails a measurement attempt with a transient error.
	RunError Kind = "run-error"
	// NetPut fails a remote checkpoint-tier PUT outright (connection
	// refused, 5xx, timeout — the shape doesn't matter, only that the
	// bytes never arrive).
	NetPut Kind = "net-put"
	// WorkerKill kills a sweep worker mid-lease: the worker vanishes
	// without completing (or even heartbeating), modelling SIGKILL, and
	// the coordinator must re-issue the lease after expiry.
	WorkerKill Kind = "worker-kill"
	// CoordinatorKill kills the sweep coordinator itself, modelling
	// SIGKILL of the -serve process: its in-memory lease table vanishes
	// and the restarted incarnation must rebuild from the write-ahead
	// log with a bumped epoch. The verdict fires when the WAL reaches a
	// seed-drawn entry offset, so a schedule kills the coordinator "at
	// arbitrary WAL offsets" deterministically.
	CoordinatorKill Kind = "coord-kill"
	// WALTear shears bytes off the tail of the coordinator WAL at a
	// kill, modelling the ack-before-fsync window of a host crash: at
	// most the final appended entry is damaged or lost, never an earlier
	// one (entries are single write()s, so process SIGKILL alone cannot
	// lose them).
	WALTear Kind = "wal-tear"
)

// ErrInjected marks every error produced by an Injector, so callers can
// classify injected faults as transient (errors.Is).
var ErrInjected = errors.New("injected fault")

// Plan sets per-kind firing rates. Disk-tier rates are probabilities per
// operation; RunFaultRate is the probability that a (benchmark, policy)
// cell suffers a run-level fault on each of its first RunFaultAttempts
// attempts. A plan is healable by a runner configured with
// retries >= RunFaultAttempts: disk faults always degrade to cache
// misses, and run faults stop firing once the attempt index reaches
// RunFaultAttempts.
type Plan struct {
	DiskRead    float64
	DiskWrite   float64
	DiskSync    float64
	CorruptRead float64
	TornWrite   float64
	// RunFaultRate is the per-attempt probability of a run-level fault
	// (panic, hang, or transient error, chosen deterministically).
	RunFaultRate float64
	// RunFaultAttempts is how many leading attempts of a cell may fault;
	// attempts >= RunFaultAttempts never fault, so a bounded retry heals.
	RunFaultAttempts int

	// NetPut is the per-upload probability of a remote checkpoint-tier
	// outage. Healable by construction: nothing reads the remote tier
	// back, so a failed upload costs only the upload.
	NetPut float64
	// WorkerKill is the probability that a sweep worker is killed while
	// holding a lease on a given cell delivery. KillAttempts bounds how
	// many leading deliveries of one cell may be killed, so a bounded
	// number of lease re-issues always completes the cell.
	WorkerKill   float64
	KillAttempts int

	// CoordKills is how many times the sweep coordinator is killed and
	// restarted over one run (0 = never). Each kill fires when the WAL
	// entry counter reaches a seed-drawn target, so kills land at
	// arbitrary — but reproducible — WAL offsets; the bound guarantees
	// the sweep eventually runs a kill-free incarnation to completion.
	CoordKills int
	// CoordKillWindow spaces kill targets: each target is drawn 1 to
	// CoordKillWindow entries past the previous kill (default 8). Small
	// windows guarantee the target is reached even in tiny sweeps.
	CoordKillWindow int
	// WALTear is the probability that a coordinator kill also tears the
	// tail of the WAL, damaging or dropping the final entry (the
	// ack-before-fsync window of a host crash).
	WALTear float64
}

// DefaultPlan is the schedule the fault-equivalence matrix runs: run
// faults at a rate high enough that every run kind fires in a small
// sweep, transient by construction (one faulting attempt per cell).
// Runners keep checkpoints in memory, so the plan has no disk rates.
func DefaultPlan() Plan {
	return Plan{
		RunFaultRate:     0.75,
		RunFaultAttempts: 1,
	}
}

// Injector draws deterministic fault verdicts. Safe for concurrent use.
type Injector struct {
	seed uint64
	plan Plan

	mu    sync.Mutex
	seq   map[string]uint64
	fired map[Kind]uint64

	// Coordinator-kill schedule state: how many kills have fired and the
	// WAL entry count the next one fires at (0 = not yet drawn). The
	// targets are pure functions of (seed, kill index), so the schedule
	// is reproducible even though the state is mutable.
	coordKills  int
	coordTarget uint64
}

// New creates an injector for one seed and plan.
func New(seed uint64, plan Plan) *Injector {
	return &Injector{
		seed:  seed,
		plan:  plan,
		seq:   make(map[string]uint64),
		fired: make(map[Kind]uint64),
	}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() uint64 { return in.seed }

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash derives the verdict word for one (kind, key, n) site. It is the
// only source of randomness: decisions never depend on global state, so
// they are stable under any goroutine interleaving.
func (in *Injector) hash(kind Kind, key string, n uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
		h = (h ^ 0xff) * 0x100000001b3
	}
	mix(string(kind))
	mix(key)
	for i := 0; i < 8; i++ {
		h = (h ^ (n >> (8 * i) & 0xff)) * 0x100000001b3
	}
	return splitmix64(h ^ splitmix64(in.seed))
}

// frac maps a hash word to [0, 1).
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// next returns the per-(kind, key) sequence number, so repeated
// operations on one site (e.g. retried reads of one file) draw fresh,
// still-deterministic verdicts.
func (in *Injector) next(kind Kind, key string) uint64 {
	sk := string(kind) + "\x00" + key
	in.mu.Lock()
	n := in.seq[sk]
	in.seq[sk] = n + 1
	in.mu.Unlock()
	return n
}

func (in *Injector) note(kind Kind) {
	in.mu.Lock()
	in.fired[kind]++
	in.mu.Unlock()
}

// roll draws a verdict for one operation at a site; the returned hash is
// valid only when the fault fires.
func (in *Injector) roll(kind Kind, key string, rate float64) (uint64, bool) {
	if rate <= 0 {
		return 0, false
	}
	h := in.hash(kind, key, in.next(kind, key))
	if frac(h) >= rate {
		return 0, false
	}
	in.note(kind)
	return h, true
}

// Fired returns how many faults of each kind have fired so far.
func (in *Injector) Fired() map[Kind]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]uint64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// String summarises the fired counts, sorted by kind.
func (in *Injector) String() string {
	fired := in.Fired()
	kinds := make([]string, 0, len(fired))
	for k := range fired {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "faults(seed=%d", in.seed)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, fired[Kind(k)])
	}
	b.WriteString(")")
	return b.String()
}

// DiskFault implements the checkpoint store's disk-fault hook: op is
// "read", "write", or "sync". A non-nil return is the injected failure.
func (in *Injector) DiskFault(op, name string) error {
	switch op {
	case "read":
		return in.opFault(DiskRead, in.plan.DiskRead, "", op, name)
	case "write":
		return in.opFault(DiskWrite, in.plan.DiskWrite, "", op, name)
	case "sync":
		return in.opFault(DiskSync, in.plan.DiskSync, "", op, name)
	}
	return nil
}

// opFault is the verdict behind DiskFault and NetFault: one draw of
// kind at site name, failing as "<tier><op> <name>".
func (in *Injector) opFault(kind Kind, rate float64, tier, op, name string) error {
	if _, hit := in.roll(kind, name, rate); hit {
		return fmt.Errorf("%w: %s%s %s", ErrInjected, tier, op, name)
	}
	return nil
}

// CorruptReader wraps a checkpoint read stream. When the verdict fires
// it either flips one byte or truncates the stream at a deterministic
// offset inside the first 2 KiB — always within a serialized snapshot's
// digest-protected prefix, so the corruption is detectable.
func (in *Injector) CorruptReader(name string, r io.Reader) io.Reader {
	h, hit := in.roll(CorruptRead, name, in.plan.CorruptRead)
	if !hit {
		return r
	}
	offset := int64(16 + h%2032) // within [16, 2048)
	if h&(1<<60) != 0 {
		return &truncatingReader{r: r, remain: offset}
	}
	return &flippingReader{r: r, offset: offset}
}

// CorruptWriter wraps a checkpoint write stream. When the verdict fires
// the stream is silently truncated at a deterministic offset — a torn
// write: the caller believes the write succeeded and the corrupt file is
// only discovered (and healed to a miss) by a later read.
func (in *Injector) CorruptWriter(name string, w io.Writer) io.Writer {
	h, hit := in.roll(TornWrite, name, in.plan.TornWrite)
	if !hit {
		return w
	}
	return &tornWriter{w: w, remain: int64(16 + h%2032)}
}

// RunFault returns the fault a (benchmark, policy) measurement attempt
// suffers: RunPanic, RunHang, RunError, or "" for none. Attempts at or
// beyond the plan's RunFaultAttempts never fault, so a runner with at
// least that many retries always heals.
func (in *Injector) RunFault(bench, policy string, attempt int) Kind {
	if attempt < 0 || attempt >= in.plan.RunFaultAttempts {
		return ""
	}
	h := in.hash("run", bench+"\x00"+policy, uint64(attempt))
	if frac(h) >= in.plan.RunFaultRate {
		return ""
	}
	kind := [...]Kind{RunPanic, RunHang, RunError}[(h>>7)%3]
	in.note(kind)
	return kind
}

// NetFault implements the remote checkpoint tier's network-fault hook,
// drawn once per upload of name. A non-nil return is the injected
// failure.
func (in *Injector) NetFault(name string) error {
	return in.opFault(NetPut, in.plan.NetPut, "net ", "put", name)
}

// KillWorker reports whether the worker holding cell on its delivery'th
// lease issue (0-based) should be killed mid-lease. Deliveries at or
// beyond the plan's KillAttempts are never killed, so lease re-issue
// always completes the cell. The verdict is keyed by cell, not worker:
// whichever worker claims the doomed delivery dies, keeping the
// schedule independent of claim interleaving.
func (in *Injector) KillWorker(cell string, delivery int) bool {
	if delivery < 0 || delivery >= in.plan.KillAttempts {
		return false
	}
	h := in.hash(WorkerKill, cell, uint64(delivery))
	if frac(h) >= in.plan.WorkerKill {
		return false
	}
	in.note(WorkerKill)
	return true
}

// KillCoordinatorAt reports whether the coordinator should be killed
// now, given that its WAL just reached entry number n (1-based, counted
// per incarnation). Each of the plan's CoordKills kills fires the first
// time n reaches a seed-drawn target 1..CoordKillWindow entries ahead;
// after the bound is spent the verdict is always false, so the final
// incarnation always runs to completion. Deterministic: the k-th kill's
// offset depends only on (seed, k), and n is monotone within an
// incarnation, so a schedule replays identically from its seed.
func (in *Injector) KillCoordinatorAt(n uint64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.CoordKills <= 0 || in.coordKills >= in.plan.CoordKills {
		return false
	}
	if in.coordTarget == 0 {
		window := uint64(in.plan.CoordKillWindow)
		if window == 0 {
			window = 8
		}
		h := in.hash(CoordinatorKill, "target", uint64(in.coordKills))
		in.coordTarget = n + 1 + h%window
	}
	if n < in.coordTarget {
		return false
	}
	in.coordKills++
	in.coordTarget = 0
	in.fired[CoordinatorKill]++
	return true
}

// WALTearBytes returns how many tail bytes to shear off the WAL at the
// kill'th coordinator kill (1-based): 0 when the tear verdict does not
// fire, else 1..64. Callers must clamp the tear to the final entry —
// earlier entries were acked single write()s and survive any SIGKILL.
func (in *Injector) WALTearBytes(kill int) int {
	h, hit := in.roll(WALTear, fmt.Sprintf("kill-%d", kill), in.plan.WALTear)
	if !hit {
		return 0
	}
	return int(1 + h%64)
}

// flippingReader XORs one byte at a fixed stream offset.
type flippingReader struct {
	r      io.Reader
	offset int64
	pos    int64
}

func (f *flippingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if i := f.offset - f.pos; i >= 0 && i < int64(n) {
		p[i] ^= 0x40
	}
	f.pos += int64(n)
	return n, err
}

// truncatingReader ends the stream early.
type truncatingReader struct {
	r      io.Reader
	remain int64
}

func (t *truncatingReader) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.r.Read(p)
	t.remain -= int64(n)
	return n, err
}

// tornWriter silently drops every byte past a fixed offset while
// reporting full success to the caller.
type tornWriter struct {
	w      io.Writer
	remain int64
}

func (t *tornWriter) Write(p []byte) (int, error) {
	keep := int64(len(p))
	if keep > t.remain {
		keep = t.remain
	}
	if keep > 0 {
		if n, err := t.w.Write(p[:keep]); err != nil {
			return n, err
		}
		t.remain -= keep
	}
	return len(p), nil
}
