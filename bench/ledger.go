package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/smp"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The layer ledger: each stage drives one layer in isolation, through
// its public functions only, on inputs captured from gzip and mcf. A
// stage's number says what that layer costs by itself; README.md says
// which end-to-end metric of which workload it should move.

// ledger carries the shared inputs from stage to stage.
type ledger struct {
	ctx   context.Context
	sz    sizes
	tmp   string
	scale int
	out   map[string]metric

	gzip, mcf       workload.Spec
	gzipImg, mcfImg *asm.Image
	events          []vm.Event // a recorded window of each benchmark, gzip first
	memAddrs        []uint64
	branches        []vm.Event
	snaps           []*vm.Snapshot // one gzip trajectory, a base interval apart
	records         []experiments.JournalRecord
}

// ledgerStage is one entry of the stage list; a stage that fails makes
// the traced run fail, naming the stage.
type ledgerStage struct {
	name string
	run  func(*ledger) error
}

var ledgerStages = []ledgerStage{
	{"inputs", (*ledger).stageInputs},
	{"vm", (*ledger).stageVM},
	{"snapshot", (*ledger).stageSnapshot},
	{"timing", (*ledger).stageTiming},
	{"cache+branch", (*ledger).stageCacheBranch},
	{"core", (*ledger).stageCore},
	{"ckpt", (*ledger).stageCkpt},
	{"policies", (*ledger).stagePolicies},
	{"journal", (*ledger).stageJournal},
	{"coordinator", (*ledger).stageCoordinator},
	{"smp", (*ledger).stageSMP},
}

// runLedger runs every stage and returns its metrics.
func runLedger(ctx context.Context, sz sizes, tmpRoot string, log *spanLog, parent uint64) (map[string]metric, error) {
	tmp, err := os.MkdirTemp(tmpRoot, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	l := &ledger{ctx: ctx, sz: sz, tmp: tmp, scale: sz.LedgerScale, out: make(map[string]metric)}
	for _, st := range ledgerStages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := log.start(parent, "ledger."+st.name, "")
		err := st.run(l)
		log.end(id)
		if err != nil {
			return nil, fmt.Errorf("ledger stage %s: %w", st.name, err)
		}
	}
	return l.out, nil
}

func (l *ledger) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// rounds calls f (one round of work) until the stage budget is spent,
// at least three times, and returns the median seconds per round.
func (l *ledger) rounds(f func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < l.sz.StageBudget {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// recordWindow skips a quarter of the budget at full speed (past the
// initialisation phase) and records the next n retired instructions.
func recordWindow(img *asm.Image, budget uint64, n int) []vm.Event {
	m := vm.New(vm.Config{})
	m.Load(img)
	m.Run(budget/4, nil)
	evs := make([]vm.Event, 0, n)
	m.Run(uint64(n), vm.BatchFunc(func(b []vm.Event) { evs = append(evs, b...) }))
	return evs
}

func (l *ledger) stageInputs() error {
	var err error
	if l.gzip, err = workload.ByName("gzip"); err != nil {
		return err
	}
	if l.mcf, err = workload.ByName("mcf"); err != nil {
		return err
	}
	l.set("workload.build.ms", l.rounds(func() { l.gzipImg, _ = workload.BuildScaled(l.gzip, l.scale) })*1e3, "ms")
	l.mcfImg, _ = workload.BuildScaled(l.mcf, l.scale)

	window := 25_000
	if min := int(l.gzip.ScaledInstr(l.scale) / 4); window > min {
		window = min
	}
	l.events = append(recordWindow(l.gzipImg, l.gzip.ScaledInstr(l.scale), window),
		recordWindow(l.mcfImg, l.mcf.ScaledInstr(l.scale), window)...)
	for _, ev := range l.events {
		switch ev.Class {
		case isa.ClassLoad, isa.ClassStore:
			l.memAddrs = append(l.memAddrs, ev.MemAddr)
		case isa.ClassBranch:
			l.branches = append(l.branches, ev)
		}
	}
	if len(l.memAddrs) == 0 || len(l.branches) == 0 {
		return fmt.Errorf("recorded window has %d memory accesses and %d branches", len(l.memAddrs), len(l.branches))
	}
	return nil
}

// vmRate runs gzip in 100k-instruction slices for the stage budget,
// rewinding to the boot snapshot whenever the guest completes, and
// returns Minstr/s.
func (l *ledger) vmRate(cfg vm.Config, sink vm.Sink) float64 {
	m := vm.New(cfg)
	m.Load(l.gzipImg)
	boot := m.Snapshot()
	var executed uint64
	start := time.Now()
	for time.Since(start) < l.sz.StageBudget {
		n := m.Run(100_000, sink)
		if n == 0 {
			if err := m.Restore(boot); err != nil {
				return 0
			}
		}
		executed += n
	}
	return float64(executed) / time.Since(start).Seconds() / 1e6
}

func (l *ledger) stageVM() error {
	l.set("vm.fast.minstr_per_s", l.vmRate(vm.Config{}, nil), "Minstr/s")
	l.set("vm.event.minstr_per_s", l.vmRate(vm.Config{}, &vm.CountingSink{}), "Minstr/s")
	// gzip's hot loops fit in a handful of blocks; a 4-block translation
	// cache thrashes on them (one translation per ~20 instructions), so
	// the price of decode+translate shows as the distance from vm.fast.
	l.set("vm.retranslate.minstr_per_s", l.vmRate(vm.Config{TCMaxBlocks: 4}, nil), "Minstr/s")
	return nil
}

func (l *ledger) stageSnapshot() error {
	interval := workload.DefaultIntervalLen(l.gzip.ScaledInstr(l.scale))
	n := 64
	if l.sz.StageBudget < 50*time.Millisecond {
		n = 8
	}
	m := vm.New(vm.Config{})
	m.Load(l.gzipImg)
	var snapS []float64
	for i := 0; i < n; i++ {
		if m.Run(interval, nil) == 0 {
			break
		}
		t0 := time.Now()
		s := m.Snapshot()
		snapS = append(snapS, time.Since(t0).Seconds())
		l.snaps = append(l.snaps, s)
	}
	if len(l.snaps) < 2 {
		return fmt.Errorf("guest finished after %d snapshots", len(l.snaps))
	}
	l.set("vm.snapshot.us", median(snapS)*1e6, "us")

	// Alternate between distant snapshots so no restore is a no-op.
	i := 0
	var restoreErr error
	restoreS := l.rounds(func() {
		i++
		if err := m.Restore(l.snaps[(i%2)*(len(l.snaps)-1)]); err != nil {
			restoreErr = err
		}
	})
	if restoreErr != nil {
		return restoreErr
	}
	l.set("vm.restore.us", restoreS*1e6, "us")

	last := l.snaps[len(l.snaps)-1]
	var buf bytes.Buffer
	var encErr error
	encS := l.rounds(func() {
		buf.Reset()
		_, encErr = last.WriteTo(&buf)
	})
	if encErr != nil {
		return encErr
	}
	decS := l.rounds(func() { _, encErr = vm.ReadSnapshot(bytes.NewReader(buf.Bytes())) })
	if encErr != nil {
		return encErr
	}
	mb := float64(buf.Len()) / (1 << 20)
	l.set("vm.snapshot.bytes", float64(buf.Len()), "bytes")
	l.set("vm.snapshot_encode.mb_per_s", mb/encS, "MB/s")
	l.set("vm.snapshot_decode.mb_per_s", mb/decS, "MB/s")
	return nil
}

// feed delivers the recorded stream in default-size batches.
func (l *ledger) feed(sink vm.BatchSink) {
	for i := 0; i < len(l.events); i += 256 {
		end := i + 256
		if end > len(l.events) {
			end = len(l.events)
		}
		sink.OnEvents(l.events[i:end])
	}
}

func (l *ledger) stageTiming() error {
	c := timing.NewCore(timing.DefaultConfig())
	minstr := float64(len(l.events)) / 1e6
	l.set("timing.detail.minstr_per_s", minstr/l.rounds(func() { l.feed(c) }), "Minstr/s")
	warm, ok := timing.NewCore(timing.DefaultConfig()).WarmSink().(vm.BatchSink)
	if !ok {
		return fmt.Errorf("timing.Core.WarmSink is not a vm.BatchSink")
	}
	l.set("timing.warm.minstr_per_s", minstr/l.rounds(func() { l.feed(warm) }), "Minstr/s")
	return nil
}

func (l *ledger) stageCacheBranch() error {
	cfg := timing.DefaultConfig()
	perAccess := func(access func(uint64) bool) float64 {
		return l.rounds(func() {
			for _, a := range l.memAddrs {
				access(a)
			}
		}) / float64(len(l.memAddrs)) * 1e9
	}
	l.set("cache.l1d.access_ns", perAccess(cache.New(cfg.L1D).Access), "ns")
	l.set("cache.l2.access_ns", perAccess(cache.New(cfg.L2).Access), "ns")
	l.set("cache.tlb.access_ns", perAccess(cache.NewTLB(cfg.DTLB).Access), "ns")
	p := branch.New(branch.Default())
	l.set("branch.update_ns", l.rounds(func() {
		for i := range l.branches {
			p.OnBranch(l.branches[i].PC, l.branches[i].Taken)
		}
	})/float64(len(l.branches))*1e9, "ns")
	return nil
}

func (l *ledger) stageCore() error {
	l.set("core.new_session.ms", l.rounds(func() { core.NewSession(l.gzip, core.Options{Scale: l.scale}) })*1e3, "ms")
	return nil
}

func (l *ledger) ckptKey(i int) ckpt.Key {
	return ckpt.Key{Workload: "gzip", Hash: 0x1ed9e7, Scale: l.scale, Instr: l.snaps[i].Instructions()}
}

func (l *ledger) stageCkpt() error {
	n := float64(len(l.snaps))
	var st *ckpt.Store
	putS := l.rounds(func() {
		st = ckpt.NewMemory()
		for i, s := range l.snaps {
			st.Put(l.ckptKey(i), s)
		}
	})
	l.set("ckpt.put.us", putS/n*1e6, "us")
	missed := 0
	l.set("ckpt.lookup.us", l.rounds(func() {
		for i := range l.snaps {
			if _, ok := st.Lookup(l.ckptKey(i)); !ok {
				missed++
			}
		}
	})/n*1e6, "us")
	l.set("ckpt.nearest.us", l.rounds(func() {
		for i := range l.snaps {
			k := l.ckptKey(i)
			k.Instr++
			if _, _, ok := st.Nearest(k); !ok {
				missed++
			}
		}
	})/n*1e6, "us")
	if missed > 0 {
		return fmt.Errorf("%d lookups of stored keys missed", missed)
	}
	ms := st.Stats()
	l.set("ckpt.mem.bytes_per_snapshot", float64(ms.Bytes)/float64(ms.Entries), "bytes")

	// The disk tier, on a short prefix: at ~1 MB per snapshot the full
	// trajectory would be most of the stage's time.
	disk := l.snaps
	if len(disk) > 16 {
		disk = disk[:16]
	}
	dir := filepath.Join(l.tmp, "ckpt")
	ds, err := ckpt.New(ckpt.Options{Dir: dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, s := range disk {
		ds.Put(l.ckptKey(i), s)
	}
	l.set("ckpt.disk_write.ms", time.Since(t0).Seconds()/float64(len(disk))*1e3, "ms")
	if w := ds.Stats(); w.DiskWrites != uint64(len(disk)) {
		return fmt.Errorf("disk tier wrote %d of %d snapshots", w.DiskWrites, len(disk))
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	l.set("ckpt.disk.bytes_per_snapshot", float64(size)/float64(len(disk)), "bytes")
	cold, err := ckpt.New(ckpt.Options{Dir: dir})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := range disk {
		if _, ok := cold.Lookup(l.ckptKey(i)); !ok {
			return fmt.Errorf("disk tier lost %s", l.ckptKey(i))
		}
	}
	l.set("ckpt.disk_load.ms", time.Since(t0).Seconds()/float64(len(disk))*1e3, "ms")
	return nil
}

// cellMs times one gzip cell run the way the Runner runs it: a fresh
// session, then the policy.
func (l *ledger) cellMs(p sampling.Policy) (float64, error) {
	var err error
	s := l.rounds(func() {
		if _, e := p.Run(core.NewSession(l.gzip, core.Options{Scale: l.scale, Context: l.ctx})); e != nil {
			err = e
		}
	})
	return s * 1e3, err
}

func (l *ledger) stagePolicies() error {
	budget := l.gzip.ScaledInstr(l.scale)
	for _, f := range []struct {
		name string
		p    sampling.Policy
	}{
		{"sampling.cell_ms.full", sampling.FullTiming{}},
		{"sampling.cell_ms.smarts", sampling.DefaultSMARTS(budget)},
		{"sampling.cell_ms.dynamic", sampling.NewDynamic(vm.MetricCPU, 300, 1, 0)},
		{"sampling.cell_ms.stratified", sampling.NewStratified(experiments.StatSeed)},
		{"sampling.cell_ms.rankedset", sampling.NewRankedSet(experiments.StatSeed)},
		{"simpoint.cell_ms", simpoint.New(false)},
	} {
		ms, err := l.cellMs(f.p)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		l.set(f.name, ms, "ms")
	}

	s := core.NewSession(l.gzip, core.Options{Scale: l.scale})
	prof := simpoint.NewProfiler(0, 1)
	t0 := time.Now()
	for !s.Done() {
		if s.RunProfile(s.IntervalLen(), prof) == 0 {
			break
		}
		prof.EndInterval()
	}
	l.set("simpoint.bbv.minstr_per_s", float64(s.Executed())/time.Since(t0).Seconds()/1e6, "Minstr/s")
	vectors := prof.Vectors()
	if len(vectors) == 0 {
		return fmt.Errorf("no BBV intervals profiled")
	}
	l.set("simpoint.kmeans.ms", l.rounds(func() { simpoint.KMeans(vectors, 8, 8, 1) })*1e3, "ms")
	return nil
}

// renamed returns rec as another benchmark's record: the coordinator
// and the renderers only need a structurally complete record set, and
// cloning gzip's avoids simulating the whole suite inside a stage.
func renamed(rec experiments.JournalRecord, bench string) experiments.JournalRecord {
	rec.Bench = bench
	if rec.Result != nil {
		r := *rec.Result
		r.Bench = bench
		rec.Result = &r
	}
	return rec
}

func (l *ledger) stageJournal() error {
	// One real gzip cell per artifact policy gives a genuine record set.
	scale := l.scale * 4
	path := filepath.Join(l.tmp, "gzip.jsonl")
	r := experiments.NewRunner(experiments.Options{Scale: scale, Benchmarks: []string{"gzip"}, Parallelism: 1, Journal: path, Context: l.ctx})
	_, err := r.RunAll(experiments.ArtifactPolicies(scale))
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	gz, err := experiments.ReadJournal(path, scale)
	if err != nil {
		return err
	}
	for _, b := range workload.Names() {
		for _, rec := range gz {
			if rec.Kind == "result" || rec.Kind == "analysis" {
				l.records = append(l.records, renamed(rec, b))
			}
		}
	}
	if len(l.records) == 0 {
		return fmt.Errorf("gzip journal replayed no records")
	}

	bulk := make([]experiments.JournalRecord, 0, 2000)
	for len(bulk) < cap(bulk) {
		bulk = append(bulk, l.records[len(bulk)%len(l.records)])
	}
	bulkPath := filepath.Join(l.tmp, "bulk.jsonl")
	var ioErr error
	writeS := l.rounds(func() {
		if e := experiments.WriteJournalFile(bulkPath, scale, bulk); e != nil {
			ioErr = e
		}
	})
	replayS := l.rounds(func() {
		recs, e := experiments.ReadJournal(bulkPath, scale)
		if e == nil && len(recs) != len(bulk) {
			e = fmt.Errorf("replayed %d of %d records", len(recs), len(bulk))
		}
		if e != nil {
			ioErr = e
		}
	})
	if ioErr != nil {
		return ioErr
	}
	krec := float64(len(bulk)) / 1e3
	l.set("experiments.journal.write_krec_per_s", krec/writeS, "krec/s")
	l.set("experiments.journal.replay_krec_per_s", krec/replayS, "krec/s")

	full := filepath.Join(l.tmp, "suite.jsonl")
	if err := experiments.WriteJournalFile(full, scale, l.records); err != nil {
		return err
	}
	executed := 0
	renderS := l.rounds(func() {
		rr := experiments.NewRunner(experiments.Options{Scale: scale, Journal: full, CkptOff: true, Context: l.ctx})
		if e := experiments.RenderArtifacts(rr, io.Discard); e != nil {
			ioErr = e
		}
		executed += rr.Executions()
		rr.Close()
	})
	if ioErr != nil {
		return ioErr
	}
	if executed != 0 {
		return fmt.Errorf("rendering from a complete journal executed %d cells", executed)
	}
	l.set("experiments.render.ms", renderS*1e3, "ms")
	return nil
}

// driveCoordinator claims, appends and completes every cell in-process
// and returns the seconds per cell.
func (l *ledger) driveCoordinator(c *sweep.Coordinator, byCell map[sweep.Cell][]experiments.JournalRecord) (float64, error) {
	now := time.Now()
	cells := 0
	t0 := time.Now()
	for {
		lease, done := c.Claim("ledger", now)
		if done || lease == nil {
			break
		}
		recs := byCell[lease.Cell]
		if err := c.Append(lease.ID, recs, now); err != nil {
			return 0, err
		}
		if err := c.Complete(lease.ID, recs, now); err != nil {
			return 0, err
		}
		cells++
	}
	d := time.Since(t0).Seconds()
	if !c.Done() || cells == 0 {
		return 0, fmt.Errorf("coordinator not done after %d cells", cells)
	}
	return d / float64(cells), nil
}

func (l *ledger) stageCoordinator() error {
	scale := l.scale * 4
	cfg := sweep.Config{Scale: scale}
	byCell := make(map[sweep.Cell][]experiments.JournalRecord)
	for _, cell := range cfg.Cells() {
		names, analysis := experiments.KeyRecordNames(cell.Policy)
		for _, rec := range l.records {
			if rec.Bench != cell.Bench {
				continue
			}
			if rec.Kind == "analysis" && analysis {
				byCell[cell] = append(byCell[cell], rec)
			}
			for _, n := range names {
				if rec.Kind == "result" && rec.Policy == n {
					byCell[cell] = append(byCell[cell], rec)
				}
			}
		}
	}

	var verbErr error
	var perCell []float64
	l.rounds(func() {
		s, err := l.driveCoordinator(sweep.NewCoordinator(cfg, nil, nil), byCell)
		if err != nil {
			verbErr = err
		}
		perCell = append(perCell, s)
	})
	if verbErr != nil {
		return verbErr
	}
	plain := median(perCell)
	l.set("sweep.coord.verb_us", plain*1e6, "us")

	walPath := filepath.Join(l.tmp, "coord.wal")
	wc, err := sweep.NewWALCoordinator(cfg, walPath, nil, nil)
	if err != nil {
		return err
	}
	logged, err := l.driveCoordinator(wc, byCell)
	if cerr := wc.CloseWAL(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.set("sweep.wal.append_us", (logged-plain)*1e6, "us")

	t0 := time.Now()
	replayed, err := sweep.NewWALCoordinator(cfg, walPath, nil, nil)
	if err != nil {
		return err
	}
	l.set("sweep.wal.replay_ms", time.Since(t0).Seconds()*1e3, "ms")
	restored := replayed.Stats().Restored
	if err := replayed.CloseWAL(); err != nil {
		return err
	}
	if want := len(cfg.Cells()); restored != want {
		return fmt.Errorf("WAL replay restored %d of %d cells", restored, want)
	}
	return nil
}

func (l *ledger) stageSMP() error {
	reg := obs.NewRegistry()
	run := func(timed bool) float64 {
		sys := smp.New(smp.Config{Obs: reg})
		sys.AddGuest("gzip", l.gzipImg, l.gzip.ScaledInstr(l.scale))
		sys.AddGuest("mcf", l.mcfImg, l.mcf.ScaledInstr(l.scale))
		t0 := time.Now()
		for !sys.Done() {
			if timed {
				sys.RunTimed(1 << 20)
			} else {
				sys.RunFast(1 << 20)
			}
		}
		d := time.Since(t0).Seconds()
		var executed uint64
		for _, g := range sys.Guests() {
			executed += g.Executed()
		}
		return float64(executed) / d / 1e6
	}
	l.set("smp.fast.minstr_per_s", run(false), "Minstr/s")
	l.set("smp.timed.minstr_per_s", run(true), "Minstr/s")
	// No workload runs SMP, so these move no end-to-end metric; they are
	// kept so that path is not unmeasured.
	l.set("smp.barrier_rounds", float64(reg.Counter("smp_barrier_rounds_total", "schedule", "parallel").Value()), "count")
	return nil
}
