package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sweep"
	"repro/internal/vm"
	"repro/internal/workload"
)

// loadCPUs is the load shape every workload assumes: children run with
// GOMAXPROCS=2, and sweep_dist uses exactly two workers.
const loadCPUs = 2

// sizes fixes how much work one pass of each workload does. The values
// were chosen on the 2-CPU reference host so that one pass lasts one to
// a few seconds and a 20-second run therefore reports a median over
// several passes; see README.md for the measured pass lengths.
type sizes struct {
	// DetailScale is the scale divisor of detail_full and ds_fast; the
	// two move together so that ds_fast's ground truth is detail_full's
	// own work.
	DetailScale int
	// CkptScale is ckpt_warm's divisor. Its store runs at stride 1 and
	// must stay in memory: at stride 1 a disk tier writes ~1 MB per
	// snapshot.
	CkptScale int
	// SweepScale and SweepStride size sweep_dist: it runs every
	// SweepStride-th benchmark of the suite, so that a pass stays a few
	// seconds long while integer and FP, compute- and memory-bound
	// benchmarks are all present.
	SweepScale  int
	SweepStride int
	// LedgerScale is the divisor of the isolated layer stages.
	LedgerScale int
	// Primings is how often ckpt_warm repeats its set-up (the cold
	// priming sweep) so that setup_s is a median, not one sample.
	Primings int
	// StageBudget bounds each timed ledger stage.
	StageBudget time.Duration
}

var fullSizes = sizes{
	DetailScale: 5000,
	CkptScale:   5000,
	SweepScale:  40000,
	SweepStride: 3,
	LedgerScale: 20000,
	Primings:    3,
	StageBudget: 150 * time.Millisecond,
}

// quick is the -quick configuration: divisors ×20, a 3-benchmark sweep
// and short ledger stages, so the whole harness runs under `go test`
// in under ten seconds.
func (s sizes) quick() sizes {
	s.DetailScale *= 20
	s.CkptScale *= 20
	s.SweepScale *= 20
	s.LedgerScale *= 20
	s.SweepStride = 9
	s.Primings = 1
	s.StageBudget = 5 * time.Millisecond
	return s
}

// workloadNames is the fixed list; later issues refer to these names.
var workloadNames = []string{"detail_full", "ds_fast", "ckpt_warm", "sweep_dist"}

// strataBenches is the subset the three single-process workloads run:
// one benchmark per personality stratum (compute-bound integer,
// memory-bound integer, memory-bound FP, phase-rich integer).
var strataBenches = []string{"gzip", "mcf", "swim", "perlbmk"}

// dsPolicies is the paper's policy family (Figure 5's Dynamic Sampling
// points with unbounded max_func).
func dsPolicies() []sampling.Policy {
	return []sampling.Policy{
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0),
		sampling.NewDynamic(vm.MetricCPU, 500, 1, 0),
		sampling.NewDynamic(vm.MetricEXC, 300, 1, 0),
		sampling.NewDynamic(vm.MetricIO, 100, 1, 0),
	}
}

// seededInputs derives a workload's inputs from the seed: the benchmark
// order is shuffled and the scale divisor is raised by up to 5 %, which
// changes every benchmark's instruction budget and therefore the guest
// program the generator emits. The benchmark set itself is not drawn
// from the seed: budgets differ 8× across the suite, so a seeded subset
// would make throughput a property of the draw, not of the simulator.
// The simulator only ever receives benchmark names and a scale.
func seededInputs(seed uint64, benches []string, scale int) ([]string, int) {
	rng := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	out := append([]string(nil), benches...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out, scale + rng.Intn(scale/20+1)
}

// cellResult is one (benchmark, policy) measurement as the harness saw
// it from outside.
type cellResult struct {
	Bench  string
	Policy string // execution key (experiments.PolicyKeyOf)
	Res    sampling.Result
	WallS  float64
	Failed bool
}

// passResult is what one measured section produced.
type passResult struct {
	cells  []cellResult
	instr  uint64
	failed int
	// problems are broken invariants; any makes the whole run incorrect.
	problems []string
}

func (p *passResult) add(c cellResult) {
	p.cells = append(p.cells, c)
	if c.Failed {
		p.failed++
		return
	}
	p.instr += c.Res.Instructions
}

// fingerprint folds every cell's simulated outcome into one value. A
// speed-only change must leave it identical.
func (p *passResult) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range p.cells {
		io.WriteString(h, c.Bench)
		io.WriteString(h, c.Policy)
		put(math.Float64bits(c.Res.EstIPC))
		put(c.Res.Instructions)
		put(uint64(c.Res.Samples))
		put(math.Float64bits(c.Res.Cost.Units))
	}
	return h.Sum64()
}

// passTrace is the instrumentation attached to one traced pass; nil on
// untraced passes, which is where every end-to-end number comes from.
type passTrace struct {
	log   *spanLog
	span  uint64 // the pass's own span
	reg   *obs.Registry
	trans *obs.TransitionTrace
}

// transitionCap holds every transition of the largest traced pass
// (ds_fast records ~1.8 k at the default sizes).
const transitionCap = 1 << 14

func newPassTrace(log *spanLog) *passTrace {
	return &passTrace{log: log, reg: obs.NewRegistry(), trans: obs.NewTransitionTrace(transitionCap)}
}

func (t *passTrace) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *passTrace) transitions() *obs.TransitionTrace {
	if t == nil {
		return nil
	}
	return t.trans
}

func (t *passTrace) spans() (*spanLog, uint64) {
	if t == nil {
		return nil, 0
	}
	return t.log, t.span
}

// bench is one workload as the run loop drives it.
type bench interface {
	// setupEvery reports whether each pass needs a fresh set-up (a cold
	// store, a new coordinator) or all passes share one.
	setupEvery() bool
	// setup does everything that precedes a measured section.
	setup(ctx context.Context, tr *passTrace) error
	// pass is the measured section.
	pass(ctx context.Context, tr *passTrace) (passResult, error)
	// finish releases the pass's resources and, on a traced pass, adds
	// the per-layer numbers only this workload can see.
	finish(tr *passTrace, res *passResult, wall time.Duration, layer map[string]metric) error
	// verify checks outputs once measuring is over and returns the mean
	// absolute IPC error in percent against full-timing ground truth,
	// with the ground-truth cells it ran (nil when the workload carries
	// its own).
	verify(ctx context.Context, last *passResult) (errPct float64, truth []cellResult, problems []string, err error)
	// matrix lists what one pass runs, for the simulated-statistics pass.
	matrix() (benches []string, policies []sampling.Policy, scale int)
}

// runCells drives benches × policies through a fresh Runner in
// canonical order, one cell at a time, so memoisation never hides work
// and checkpoint hit/miss counts repeat exactly.
func runCells(ctx context.Context, tr *passTrace, opts experiments.Options, policies []sampling.Policy) passResult {
	opts.Parallelism = 1
	opts.Retries = -1 // a retry would hide a failure inside a longer time
	opts.Context = ctx
	opts.Obs = tr.registry()
	opts.Trace = tr.transitions()
	r := experiments.NewRunner(opts)
	defer r.Close()
	log, parent := tr.spans()
	var out passResult
	for _, b := range opts.Benchmarks {
		for _, p := range policies {
			key := experiments.PolicyKeyOf(p)
			id := log.start(parent, "cell", b+"/"+key)
			start := time.Now()
			res, err := r.Run(b, p)
			wall := time.Since(start)
			log.end(id)
			out.add(cellResult{Bench: b, Policy: key, Res: res, WallS: wall.Seconds(), Failed: err != nil})
		}
	}
	return out
}

// buildImages generates every benchmark's guest program once, as the
// inputs' share of set-up (the sessions build their own again).
func buildImages(benches []string, scale int) error {
	for _, b := range benches {
		spec, err := workload.ByName(b)
		if err != nil {
			return err
		}
		workload.BuildScaled(spec, scale)
	}
	return nil
}

// cellSweep is the shape of the three single-process workloads: a fixed
// benchmark subset × a policy list at one scale over an in-memory
// checkpoint store.
type cellSweep struct {
	name     string
	benches  []string
	scale    int
	policies []sampling.Policy
	stride   uint64 // checkpoint deposit stride (0 = the runner's default)
	// primed marks ckpt_warm: set-up is the cold priming sweep (the
	// store's write side) and every pass reads the same warm store.
	primed bool

	store  *ckpt.Store
	before ckpt.Stats
}

func (w *cellSweep) setupEvery() bool { return !w.primed }

func (w *cellSweep) matrix() ([]string, []sampling.Policy, int) {
	return w.benches, w.policies, w.scale
}

func (w *cellSweep) options(store *ckpt.Store) experiments.Options {
	return experiments.Options{Scale: w.scale, Benchmarks: w.benches, CkptStore: store, CkptStride: w.stride, CkptOff: store == nil}
}

func (w *cellSweep) setup(ctx context.Context, _ *passTrace) error {
	w.store = nil // the previous set-up's store is garbage from here on
	if err := buildImages(w.benches, w.scale); err != nil {
		return err
	}
	w.store = ckpt.NewMemory()
	var warm passResult
	if w.primed {
		warm = runCells(ctx, nil, w.options(w.store), w.policies)
	} else {
		// One discarded cell on a throwaway store lets lazy set-up in the
		// process finish before the first measured section. Always the
		// same benchmark, whatever order the seed put them in: budgets
		// differ 7x inside the subset.
		opts := w.options(ckpt.NewMemory())
		opts.Benchmarks = strataBenches[:1]
		warm = runCells(ctx, nil, opts, w.policies[:1])
	}
	if warm.failed > 0 {
		return fmt.Errorf("%s: %d cells failed during set-up", w.name, warm.failed)
	}
	return ctx.Err()
}

func (w *cellSweep) pass(ctx context.Context, tr *passTrace) (passResult, error) {
	w.before = w.store.Stats()
	return runCells(ctx, tr, w.options(w.store), w.policies), ctx.Err()
}

func (w *cellSweep) finish(tr *passTrace, _ *passResult, _ time.Duration, layer map[string]metric) error {
	if tr == nil {
		return nil
	}
	st := w.store.Stats()
	ckptMetrics(layer, st.Hits-w.before.Hits, st.Misses-w.before.Misses,
		st.Puts-w.before.Puts, st.DupPuts-w.before.DupPuts, st.RemotePuts-w.before.RemotePuts)
	layer["ckpt.store.entries"] = metric{float64(st.Entries), "count"}
	layer["ckpt.store.mb"] = metric{float64(st.Bytes) / (1 << 20), "MB"}
	// The single-process workloads never enter the sweep layer; saying so
	// by name, as zeros, is the "no change" prediction made checkable.
	sweepLayerMetrics(layer, nil, nil, 0, sweep.CoordStats{}, ckpt.Stats{}, 0)
	return nil
}

func (w *cellSweep) verify(ctx context.Context, last *passResult) (float64, []cellResult, []string, error) {
	if _, sampled := splitFull(last.cells); len(sampled) == 0 {
		return 0, nil, nil, nil // all full timing: its own ground truth
	}
	var problems []string
	if w.primed {
		// The store must be a pure cache: a store-off run of the same
		// cells has to give the same results bit for bit.
		off := runCells(ctx, nil, w.options(nil), w.policies)
		if err := ctx.Err(); err != nil {
			return 0, nil, nil, err
		}
		for i, c := range off.cells {
			if c.Failed || !reflect.DeepEqual(c.Res, last.cells[i].Res) {
				problems = append(problems, fmt.Sprintf("%s/%s: warm-store result differs from a store-off run", c.Bench, c.Policy))
			}
		}
	}
	truth, _, err := directPass(ctx, w.benches, []sampling.Policy{sampling.FullTiming{}}, w.scale)
	if err != nil {
		return 0, nil, nil, err
	}
	return meanErrPct(truth, last.cells), truth, problems, nil
}

// meanErrPct is the mean |EstIPC − full-timing IPC| / full-timing IPC
// over the sampled cells, in percent.
func meanErrPct(truth, cells []cellResult) float64 {
	full := make(map[string]sampling.Result, len(truth))
	for _, t := range truth {
		if t.Policy == "Full timing" && !t.Failed {
			full[t.Bench] = t.Res
		}
	}
	var sum float64
	n := 0
	for _, c := range cells {
		base, ok := full[c.Bench]
		if !ok || c.Failed || c.Policy == "Full timing" {
			continue
		}
		sum += c.Res.ErrorVs(base) * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// maxTempBytes is the hard cap on a workload's temporary directory: the
// harness fails rather than fill the disk.
const maxTempBytes = 2 << 30

func dirSize(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a file removed while walking
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// newBench builds the named workload from the seed.
func newBench(name string, seed uint64, sz sizes, tmpRoot string) (bench, error) {
	switch name {
	case "detail_full":
		b, scale := seededInputs(seed, strataBenches, sz.DetailScale)
		return &cellSweep{name: name, benches: b, scale: scale, policies: []sampling.Policy{sampling.FullTiming{}}}, nil
	case "ds_fast":
		b, scale := seededInputs(seed, strataBenches, sz.DetailScale)
		return &cellSweep{name: name, benches: b, scale: scale, policies: dsPolicies()}, nil
	case "ckpt_warm":
		b, scale := seededInputs(seed, strataBenches, sz.CkptScale)
		return &cellSweep{name: name, benches: b, scale: scale, policies: dsPolicies(), stride: 1, primed: true}, nil
	case "sweep_dist":
		var benches []string
		for i, b := range workload.Names() {
			if i%sz.SweepStride == 0 {
				benches = append(benches, b)
			}
		}
		// Suite order is kept (the journal merge and the renderers
		// assume it); the seed moves only the scale.
		_, scale := seededInputs(seed, nil, sz.SweepScale)
		return &sweepDist{benches: benches, scale: scale, seed: seed, tmpRoot: tmpRoot}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
