// Package ckpt is the persistent checkpoint store behind the warm-start
// execution cache. It maps (workload name, workload hash, scale,
// instruction count) to full VM snapshots, holding recently-used
// entries in memory under an LRU byte budget and, optionally, mirroring
// every deposit to an on-disk directory so checkpoints survive the
// process (the paper's methodology likewise restores stored SimNow
// snapshots rather than re-executing prefixes). Deposits may also be
// mirrored to a remote tier (Options.Remote); lookups never read from
// it.
//
// Beside the snapshots, the store keeps trajectory records: the three
// monitored VM statistics at every interval boundary a session's fast
// burst ended on (Record). They are memory-only: never written to Dir,
// never mirrored to Remote, never charged against MaxBytes.
//
// Correctness stance: the store is a pure cache. A hit must be
// indistinguishable from cold execution (core.Session enforces the
// sharing discipline; internal/vm makes restores stats-exact). Any
// disk-level corruption — truncated file, flipped byte, stale version —
// is detected by the snapshot digest footer and degrades to a miss
// (ErrCorrupt; the file is removed), never to a panic or a
// silently-restored corrupt state; a file the filesystem will not open
// or read degrades to a miss too (ErrIO; the file is kept).
package ckpt

import (
	"bufio"
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Key identifies one checkpoint: a workload-identity triple plus the
// guest instruction count the snapshot was taken at.
type Key struct {
	// Workload is the benchmark name (human-readable disk filenames).
	Workload string
	// Hash is the workload-identity hash: guest image digest mixed with
	// the budget, interval, and every VM-configuration field that
	// affects the execution trajectory. Two sessions with equal hashes
	// execute identical instruction streams.
	Hash uint64
	// Scale is the workload scale divisor (redundant with Hash, kept
	// explicit for filenames and debugging).
	Scale int
	// Instr is the guest instruction count at the checkpoint.
	Instr uint64
}

// series is the key minus the instruction count: the identity of one
// execution trajectory.
type series struct {
	workload string
	hash     uint64
	scale    int
}

func (k Key) series() series { return series{k.Workload, k.Hash, k.Scale} }

// String renders the key (and names the on-disk file for it).
func (k Key) String() string {
	return fmt.Sprintf("%s-%016x-%d-%d", k.Workload, k.Hash, k.Scale, k.Instr)
}

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the in-memory entries' total estimated size
	// (default 512 MiB). The most recently used entries are kept.
	MaxBytes int64
	// Dir, when non-empty, persists every deposit to this directory and
	// serves misses from it. Created if absent.
	Dir string
	// Remote, when non-nil, is a shared network checkpoint tier that
	// every deposit is mirrored to. Nothing is ever read back from it:
	// lookups are served by the local tiers alone, because the fast
	// engine re-executes a prefix far quicker than a fetch would bring
	// it. A failed mirror costs only the upload.
	Remote Remote
	// Obs, when non-nil, mirrors the Stats counters into a metrics
	// registry and times disk loads/writes. Write-only: never consulted
	// by cache decisions, so hit/miss behaviour is identical without it.
	Obs *obs.Registry
}

// Remote is a deposit mirror served over a network (see internal/sweep
// for the HTTP implementation). Errors are transport-level failures the
// store degrades on.
type Remote interface {
	// Put uploads a snapshot under k. Uploads are idempotent: the
	// encoding is deterministic, so concurrent workers racing the same
	// key commit identical bytes.
	Put(k Key, snap *vm.Snapshot) error
}

// maxWriteFails is how many consecutive disk-write failures the store
// tolerates before degrading to its in-memory tier: after that, writes
// stop (reads continue) so a dead disk costs one bounded burst of
// errors rather than an error per deposit for the rest of the run.
const maxWriteFails = 3

// maxRemoteFails is the same ladder for the remote tier: after this
// many consecutive failed uploads the store stops mirroring to it, so a
// dead or flaky coordinator costs a bounded burst of timeouts rather
// than one per deposit for the rest of the sweep.
const maxRemoteFails = 3

// Stats counts store activity; /v1/status serves them and the bench
// harness reports them as its ckpt.* metrics.
type Stats struct {
	Hits          uint64 // snapshots Lookup and Below served (memory or disk)
	Misses        uint64 // exact-key lookups that found nothing
	NearestHits   uint64 // nearest-≤ lookups served
	NearestMisses uint64 // nearest-≤ lookups that found nothing
	Puts          uint64 // deposits of new keys
	DupPuts       uint64 // deposits of already-present keys (dropped)
	Evictions     uint64 // in-memory entries dropped by the LRU budget
	DiskLoads     uint64 // snapshots deserialized from Dir
	DiskWrites    uint64 // snapshots serialized to Dir
	DiskErrors    uint64 // corrupt/unreadable files degraded to misses
	WriteFails    uint64 // failed disk writes (subset of DiskErrors)
	Discards      uint64 // entries explicitly discarded by callers
	Skips         uint64 // record lookups served: fast intervals skipped
	RemotePuts    uint64 // deposits mirrored to the remote tier
	RemoteErrors  uint64 // failed uploads to the remote tier
	Entries       int    // current in-memory entries
	DiskEntries   int    // current on-disk entries
	Bytes         int64  // current in-memory bytes, shared state counted once
	DiskDegraded  bool   // disk writes disabled after maxWriteFails
	RemoteOff     bool   // remote tier disabled after maxRemoteFails
}

type entry struct {
	key  Key
	snap *vm.Snapshot
}

// Store is a content-addressed checkpoint cache, safe for concurrent
// use. Disk reads and Put's writes happen under the store lock — simple
// and correct; the store is consulted between simulation intervals,
// never inside the VM's hot loop. PutFrom, which a server calls once per
// upload from many connections, does its I/O outside the lock.
type Store struct {
	mu    sync.Mutex
	opts  Options
	mem   map[Key]*list.Element // value: *entry
	lru   *list.List            // front = most recently used
	bytes int64
	// refs counts, per separately allocated piece of snapshot state (see
	// vm.Snapshot.Parts: the snapshot's own state, TLB contents, block
	// list, page table, guest pages), how many in-memory holders share
	// it. Snapshots of one trajectory share whatever did not change
	// between them, so charging each entry its full SizeBytes would
	// overstate residency several times over and thrash the LRU; instead
	// a piece is charged when its count rises from zero and refunded when
	// it falls back, and bytes is the heap the in-memory tier really
	// keeps alive. Pages are counted once per page table that is itself
	// counted, not once per entry.
	refs map[any]int
	disk map[Key]bool
	// held indexes each series' keys in either tier by instruction
	// count, ascending; a key gone from both is pruned when a search meets it.
	held map[series][]uint64
	// trails holds each series' trajectory records.
	trails map[series]*trail
	// writeFails counts consecutive disk-write failures; at
	// maxWriteFails the disk tier degrades to read-only.
	writeFails int
	diskOff    bool
	// remoteFails counts consecutive remote-tier failures; at
	// maxRemoteFails the remote tier is dropped entirely.
	remoteFails int
	remoteOff   bool
	stats       Stats
	ob          storeObs
}

// storeObs mirrors the Stats counters into a metrics registry. All
// handles come from the nil-safe obs API, so they are resolved
// unconditionally (a nil registry yields no-op handles) and call sites
// need no guards.
type storeObs struct {
	hits, misses, nearestHits, nearestMisses      *obs.Counter
	puts, dupPuts, evictions, discards, skips     *obs.Counter
	diskLoads, diskWrites, diskErrors, writeFails *obs.Counter
	remotePuts, remoteErrors                      *obs.Counter
	loadSecs, writeSec                            *obs.Histogram
}

// count adds one to a Stats counter and to its mirror.
func count(c *uint64, mirror *obs.Counter) {
	*c++
	mirror.Inc()
}

func newStoreObs(reg *obs.Registry) storeObs {
	return storeObs{
		hits:          reg.Counter("ckpt_store_hits_total"),
		misses:        reg.Counter("ckpt_store_misses_total"),
		nearestHits:   reg.Counter("ckpt_store_nearest_hits_total"),
		nearestMisses: reg.Counter("ckpt_store_nearest_misses_total"),
		puts:          reg.Counter("ckpt_store_puts_total"),
		dupPuts:       reg.Counter("ckpt_store_dup_puts_total"),
		evictions:     reg.Counter("ckpt_store_evictions_total"),
		diskLoads:     reg.Counter("ckpt_store_disk_loads_total"),
		diskWrites:    reg.Counter("ckpt_store_disk_writes_total"),
		diskErrors:    reg.Counter("ckpt_store_disk_errors_total"),
		writeFails:    reg.Counter("ckpt_store_write_fails_total"),
		discards:      reg.Counter("ckpt_store_discards_total"),
		skips:         reg.Counter("ckpt_store_skips_total"),
		remotePuts:    reg.Counter("ckpt_store_remote_puts_total"),
		remoteErrors:  reg.Counter("ckpt_store_remote_errors_total"),
		loadSecs:      reg.Histogram("ckpt_disk_load_seconds", obs.TimeBuckets),
		writeSec:      reg.Histogram("ckpt_disk_write_seconds", obs.TimeBuckets),
	}
}

// New creates a store. With Options.Dir set, the directory is created
// if needed and existing checkpoint files are indexed (not loaded);
// files with unparseable names are ignored.
func New(opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 512 << 20
	}
	s := &Store{
		opts:   opts,
		mem:    make(map[Key]*list.Element),
		lru:    list.New(),
		refs:   make(map[any]int),
		disk:   make(map[Key]bool),
		held:   make(map[series][]uint64),
		trails: make(map[series]*trail),
		ob:     newStoreObs(opts.Obs),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		ents, err := os.ReadDir(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		for _, e := range ents {
			if k, ok := parseFilename(e.Name()); ok {
				s.disk[k] = true
				s.indexLocked(k)
			}
		}
	}
	return s, nil
}

// NewMemory creates an in-memory store with default options.
func NewMemory() *Store {
	s, err := New(Options{})
	if err != nil {
		panic(err) // unreachable: no Dir, no I/O
	}
	return s
}

// parseFilename inverts Key.String()+".ckpt".
func parseFilename(name string) (Key, bool) {
	base, ok := strings.CutSuffix(name, ".ckpt")
	if !ok {
		return Key{}, false
	}
	return ParseKey(base)
}

// ParseKey inverts Key.String() and is the one key validator: file
// names in Dir and the keys in the sweep service's URLs both come
// through it. A key names its file, so it is accepted only as a single
// path element — the file of every accepted key is a direct child of
// Dir, whatever the network sent.
func ParseKey(base string) (Key, bool) {
	parts := strings.Split(base, "-")
	if len(parts) < 4 || strings.ContainsAny(base, `/\`) {
		return Key{}, false
	}
	n := len(parts)
	hash, err1 := strconv.ParseUint(parts[n-3], 16, 64)
	scale, err2 := strconv.Atoi(parts[n-2])
	instr, err3 := strconv.ParseUint(parts[n-1], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return Key{}, false
	}
	return Key{
		Workload: strings.Join(parts[:n-3], "-"),
		Hash:     hash,
		Scale:    scale,
		Instr:    instr,
	}, true
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.opts.Dir, k.String()+".ckpt")
}

// Contains reports whether the store holds the key, in memory or on
// disk, without loading anything.
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heldLocked(k)
}

func (s *Store) heldLocked(k Key) bool {
	_, ok := s.mem[k]
	return ok || s.disk[k]
}

// indexLocked adds k to its series' index; every key either tier
// gains comes through it.
func (s *Store) indexLocked(k Key) {
	idx := s.held[k.series()]
	if i, found := slices.BinarySearch(idx, k.Instr); !found {
		s.held[k.series()] = slices.Insert(idx, i, k.Instr)
	}
}

// Lookup returns the snapshot for an exact key from the local tiers.
// Snapshots are shared, immutable values: callers must only Restore from
// them, never mutate.
func (s *Store) Lookup(k Key) (*vm.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.lookupLocked(k); snap != nil {
		count(&s.stats.Hits, s.ob.hits)
		return snap, true
	}
	count(&s.stats.Misses, s.ob.misses)
	return nil, false
}

// lookupLocked serves k from memory or disk (in that order), nil on a
// miss. A disk load joins the memory tier. A disk-tier failure degrades
// to a miss: the index entry is dropped (and the file removed when the
// bytes themselves are corrupt) so later lookups don't retry.
func (s *Store) lookupLocked(k Key) *vm.Snapshot {
	if el, ok := s.mem[k]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry).snap
	}
	if s.disk[k] {
		loadStart := time.Now()
		snap, err := s.loadLocked(k)
		if err == nil {
			s.ob.loadSecs.Observe(time.Since(loadStart).Seconds())
			s.insertLocked(k, snap)
			return snap
		}
		count(&s.stats.DiskErrors, s.ob.diskErrors)
		delete(s.disk, k)
		if errors.Is(err, ErrCorrupt) && s.opts.Dir != "" {
			// The bytes are untrustworthy no matter how often they are
			// re-read; remove them so a future store over the same Dir
			// cannot resurrect the entry.
			os.Remove(s.path(k))
		}
	}
	return nil
}

// loadLocked opens k's disk file and runs accept on it. Whatever the
// filesystem refuses — the open, or a read during the decode — is ErrIO
// (the file may be fine); what accept refuses is ErrCorrupt (bad bytes).
func (s *Store) loadLocked(k Key) (*vm.Snapshot, error) {
	f, err := os.Open(s.path(k))
	if err != nil {
		return nil, errors.Join(ErrIO, err)
	}
	defer f.Close()
	r := &readErr{r: f}
	snap, err := accept(k, r)
	if r.err != nil {
		return nil, errors.Join(ErrIO, r.err)
	}
	if err != nil {
		return nil, err
	}
	count(&s.stats.DiskLoads, s.ob.diskLoads)
	return snap, nil
}

// readErr keeps the first error other than io.EOF that its reader
// returns, so a load can tell a file it could not read from bytes it
// read and refused.
type readErr struct {
	r   io.Reader
	err error
}

func (re *readErr) Read(p []byte) (int, error) {
	n, err := re.r.Read(p)
	if err != nil && err != io.EOF && re.err == nil {
		re.err = err
	}
	return n, err
}

// Discard removes k from every tier — memory, the disk index, and the
// disk file itself. core.Session calls this when a snapshot decoded
// cleanly but failed to restore, so the entry is never served again,
// here or to a future store over the same Dir.
func (s *Store) Discard(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[k]; ok {
		s.lru.Remove(el)
		delete(s.mem, k)
		s.bytes -= s.shareLocked(el.Value.(*entry).snap, -1)
	}
	if s.disk[k] {
		delete(s.disk, k)
		if s.opts.Dir != "" {
			os.Remove(s.path(k))
		}
	}
	count(&s.stats.Discards, s.ob.discards)
}

// Below returns the held snapshot with the highest instruction count
// in [from, k.Instr] of k's series, from either tier, and that count:
// one lock and a binary search of the series' index. A snapshot served
// counts as a hit; finding none counts nothing.
func (s *Store) Below(k Key, from uint64) (*vm.Snapshot, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, at, ok := s.belowLocked(k, from)
	if ok {
		count(&s.stats.Hits, s.ob.hits)
	}
	return snap, at, ok
}

// Nearest is Below from instruction 0, counted in the Nearest counters.
func (s *Store) Nearest(k Key) (*vm.Snapshot, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, at, ok := s.belowLocked(k, 0)
	if ok {
		count(&s.stats.NearestHits, s.ob.nearestHits)
	} else {
		count(&s.stats.NearestMisses, s.ob.nearestMisses)
	}
	return snap, at, ok
}

func (s *Store) belowLocked(k Key, from uint64) (*vm.Snapshot, uint64, bool) {
	idx := s.held[k.series()]
	i, found := slices.BinarySearch(idx, k.Instr)
	if found {
		i++
	}
	for ; i > 0 && idx[i-1] >= from; i-- {
		k.Instr = idx[i-1]
		if snap := s.lookupLocked(k); snap != nil {
			return snap, k.Instr, true
		}
		// Evicted, discarded, or a corrupt file: prune it, try the next.
		idx = slices.Delete(idx, i-1, i)
		s.held[k.series()] = idx
	}
	return nil, 0, false
}

// Record is a trajectory record: the VM statistics Dynamic Sampling
// monitors (vm.MetricCPU, MetricEXC and MetricIO, indexed by metric) at
// one interval boundary of a series. It is what a session reads between
// fast intervals, so a session holding the record at an interval's end
// may skip the interval (core.Session.fastHit). 24 bytes.
type Record [3]uint64

// RecordOf reads the monitored statistics out of a statistics record.
func RecordOf(st vm.Stats) Record {
	return Record{st.Value(vm.MetricCPU), st.Value(vm.MetricEXC), st.Value(vm.MetricIO)}
}

// trail is one series' trajectory records, indexed by interval number:
// recs[i] is the record at instruction i·every when bit i of have is
// set.
type trail struct {
	every uint64
	have  []uint64
	recs  []Record
}

// index is the slot of instruction count instr, false when instr is
// not on the trail's interval grid.
func (t *trail) index(instr, every uint64) (uint64, bool) {
	return instr / every, every == t.every && instr%every == 0
}

// PutRecord deposits r as the record at k.Instr, the end of interval
// k.Instr/every of k's series. A series keeps the interval length of
// its first record, and a key off that grid is ignored.
func (s *Store) PutRecord(k Key, every uint64, r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trails[k.series()]
	if t == nil {
		t = &trail{every: every}
		s.trails[k.series()] = t
	}
	i, ok := t.index(k.Instr, every)
	if !ok {
		return
	}
	if n := int(i) + 1; n > len(t.recs) {
		t.recs = slices.Grow(t.recs, n-len(t.recs))[:n]
		t.have = slices.Grow(t.have, (n+63)/64-len(t.have))[:(n+63)/64]
	}
	t.recs[i] = r
	t.have[i/64] |= 1 << (i % 64)
}

// LookupRecord returns the record at k.Instr in k's series (see
// PutRecord). A record served counts as a skip.
func (s *Store) LookupRecord(k Key, every uint64) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trails[k.series()]
	if t == nil {
		return Record{}, false
	}
	i, ok := t.index(k.Instr, every)
	if !ok || i >= uint64(len(t.recs)) || t.have[i/64]&(1<<(i%64)) == 0 {
		return Record{}, false
	}
	count(&s.stats.Skips, s.ob.skips)
	return t.recs[i], true
}

// Put deposits a snapshot under k. Deposits of an existing key are
// dropped: the sharing discipline guarantees any two snapshots for the
// same key encode identical state.
func (s *Store) Put(k Key, snap *vm.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[k]; ok {
		count(&s.stats.DupPuts, s.ob.dupPuts)
		return
	}
	onDisk := s.disk[k]
	count(&s.stats.Puts, s.ob.puts)
	s.insertLocked(k, snap)
	if s.opts.Dir != "" && !onDisk && !s.diskOff {
		writeStart := time.Now()
		err := s.write(k, func(w io.Writer) error {
			_, err := snap.WriteTo(w)
			return err
		})
		s.wroteLocked(k, writeStart, err)
	}
	if s.opts.Remote != nil && !s.remoteOff {
		// Mirror the deposit. A failure only costs the upload: the local
		// tiers already hold the snapshot. Nothing reads the mirror back,
		// so the only response to a sick one is to stop sending to it.
		if err := s.opts.Remote.Put(k, snap); err != nil {
			count(&s.stats.RemoteErrors, s.ob.remoteErrors)
			s.remoteFails++
			if s.remoteFails >= maxRemoteFails {
				s.remoteOff = true
				s.stats.RemoteOff = true
			}
		} else {
			count(&s.stats.RemotePuts, s.ob.remotePuts)
			s.remoteFails = 0
		}
	}
}

// PutFrom deposits the serialized snapshot r carries under k: the
// receiving end of a mirror (sweep's PUT /v1/ckpt), so it does not
// mirror onward to Remote. With a working disk tier the bytes are
// decoded once, only to verify them (accept), while a tee spools
// them into the temp file that write commits; the decoded snapshot is
// then dropped. The encoding is deterministic, so the file is byte for
// byte what Put would have written, and the memory tier fills from
// Lookup and Below as for any disk entry. Without a disk tier, or when the
// write fails, the decoded snapshot joins the memory tier as Put's
// would. A key already held answers before r is read. An upload that
// fails a check returns an ErrCorrupt-wrapped error and leaves nothing
// behind — no file, no temp file, no index entry. The read, decode,
// write and fsync run outside the store lock: uploads overlap each
// other and every lookup.
func (s *Store) PutFrom(k Key, r io.Reader) error {
	s.mu.Lock()
	held := s.heldLocked(k)
	if held {
		count(&s.stats.DupPuts, s.ob.dupPuts)
	}
	toDisk := s.opts.Dir != "" && !s.diskOff
	s.mu.Unlock()
	if held {
		return nil
	}

	var snap *vm.Snapshot
	var werr error
	writeStart := time.Now()
	if toDisk {
		var uerr error
		werr = s.write(k, func(w io.Writer) error {
			sp := &spool{w: w}
			snap, uerr = accept(k, io.TeeReader(r, sp))
			if uerr != nil {
				return uerr
			}
			return sp.err
		})
		if uerr != nil {
			return uerr
		}
	}
	if snap == nil {
		// No disk tier, or the write failed before produce ran.
		var err error
		if snap, err = accept(k, r); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.heldLocked(k) {
		// A concurrent upload of k won; its bytes are these bytes.
		count(&s.stats.DupPuts, s.ob.dupPuts)
		return nil
	}
	count(&s.stats.Puts, s.ob.puts)
	if toDisk {
		s.wroteLocked(k, writeStart, werr)
	}
	if !toDisk || werr != nil {
		s.insertLocked(k, snap)
	}
	return nil
}

// spool forwards writes until one fails and swallows the rest, keeping
// the error: a failing disk must reach PutFrom as a write failure, not
// reach the decoder reading through the tee as a corrupt upload.
type spool struct {
	w   io.Writer
	err error
}

func (sp *spool) Write(p []byte) (int, error) {
	if sp.err == nil {
		_, sp.err = sp.w.Write(p)
	}
	return len(p), nil
}

// accept is the one way a serialized snapshot enters a store — disk
// file or upload: vm.ReadSnapshot (digest footer, bounds),
// the instruction count k names, and nothing after the footer (write
// never produced a file with a tail and a server sends exactly WriteTo's
// bytes). Every refusal is ErrCorrupt, with the cause beside it.
func accept(k Key, r io.Reader) (*vm.Snapshot, error) {
	// vm.ReadSnapshot adopts a bufio.Reader this large where it would
	// wrap a smaller one, so nothing is read ahead out of sight and Peek
	// sees whatever follows the footer.
	br := bufio.NewReaderSize(r, 1<<16)
	snap, err := vm.ReadSnapshot(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, k, err)
	}
	if snap.Instructions() != k.Instr {
		return nil, fmt.Errorf("%w: %s holds instr %d", ErrCorrupt, k, snap.Instructions())
	}
	if _, err := br.Peek(1); err != io.EOF {
		if err == nil {
			err = errors.New("bytes after the digest footer")
		}
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, k, err)
	}
	return snap, nil
}

// shareLocked moves the reference count of every piece of snap by delta
// (+1 when an entry takes the snapshot, -1 when it lets go) and returns
// the bytes of the pieces whose count crossed zero: what the entry adds
// to, or frees from, the in-memory tier. A page table some other entry
// already holds is one count, its pages are not walked. Charge and
// refund are the same walk, so they pair exactly.
func (s *Store) shareLocked(snap *vm.Snapshot, delta int) int64 {
	var crossed int64
	snap.Parts(func(id any, bytes int64) bool {
		was := s.refs[id]
		if was+delta == 0 {
			delete(s.refs, id)
		} else {
			s.refs[id] = was + delta
		}
		if was != 0 && was+delta != 0 {
			return false // held before and after: nothing moves
		}
		crossed += bytes
		return true
	})
	return crossed
}

// insertLocked adds k to the in-memory tier and enforces the LRU
// budget (never evicting the entry just inserted).
func (s *Store) insertLocked(k Key, snap *vm.Snapshot) {
	e := &entry{key: k, snap: snap}
	el := s.lru.PushFront(e)
	s.mem[k] = el
	s.indexLocked(k)
	s.bytes += s.shareLocked(snap, +1)
	for s.bytes > s.opts.MaxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		if back == el {
			break
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.mem, victim.key)
		s.bytes -= s.shareLocked(victim.snap, -1)
		count(&s.stats.Evictions, s.ob.evictions)
	}
}

// wroteLocked books the outcome of one disk write of k: the index entry
// and the write counters on success, the failure counters and the
// degradation ladder otherwise.
func (s *Store) wroteLocked(k Key, start time.Time, err error) {
	if err != nil {
		count(&s.stats.DiskErrors, s.ob.diskErrors)
		count(&s.stats.WriteFails, s.ob.writeFails)
		s.writeFails++
		if s.writeFails >= maxWriteFails {
			// Degradation ladder, rung one: the disk tier keeps
			// failing, so stop writing to it and run on the
			// in-memory tier alone. Reads of entries already on
			// disk continue to work.
			s.diskOff = true
			s.stats.DiskDegraded = true
		}
		return
	}
	s.writeFails = 0
	count(&s.stats.DiskWrites, s.ob.diskWrites)
	s.ob.writeSec.Observe(time.Since(start).Seconds())
	s.disk[k] = true
	s.indexLocked(k)
}

// write persists k's file atomically: produce writes the serialized
// snapshot to a temp file, which is fsynced and then renamed, so a crash
// never leaves a half-written file under a live name. It is the one
// disk-write path — Put's producer encodes a snapshot, PutFrom's spools
// an upload — and reads no mutable store state, so it runs with or
// without the store lock. Concurrent writers of the same key are
// harmless — the encoding is deterministic, so both temp files hold
// identical bytes and either rename wins. All failures are ErrIO-wrapped,
// and a failure after the temp file exists removes it.
func (s *Store) write(k Key, produce func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(s.opts.Dir, ".tmp-*")
	if err != nil {
		return errors.Join(ErrIO, err)
	}
	defer func() {
		if err != nil {
			f.Close() // a no-op where Close was the step that failed
			os.Remove(f.Name())
			err = errors.Join(ErrIO, err)
		}
	}()
	if err = produce(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), s.path(k))
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.DiskEntries = len(s.disk)
	st.Bytes = s.bytes
	return st
}

// String summarises the store for CLI output.
func (st Stats) String() string {
	s := fmt.Sprintf("hits=%d misses=%d nearest=%d skips=%d puts=%d dup=%d evict=%d mem=%d/%dB disk=%d (loads=%d writes=%d errors=%d)",
		st.Hits, st.Misses, st.NearestHits, st.Skips, st.Puts, st.DupPuts, st.Evictions,
		st.Entries, st.Bytes, st.DiskEntries, st.DiskLoads, st.DiskWrites, st.DiskErrors)
	if st.RemotePuts+st.RemoteErrors > 0 {
		s += fmt.Sprintf(" remote(puts=%d errors=%d)", st.RemotePuts, st.RemoteErrors)
	}
	if st.DiskDegraded {
		s += " DISK-DEGRADED"
	}
	if st.RemoteOff {
		s += " REMOTE-OFF"
	}
	return s
}
