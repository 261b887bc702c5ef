package workload

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mix"
)

// Guest memory layout for generated benchmarks.
const (
	// CodeBase is where the dispatcher (the benchmark's static "main")
	// is loaded.
	CodeBase = 0x0001_0000
	// HotBase is the hot code page kernels are copied into at phase
	// transitions. It is a single guest page, so a copy invalidates all
	// current kernel translations (the CPU metric's signal).
	HotBase = 0x0008_0000
	// DataBase is the start of the static data segment (staged kernel
	// code, I/O buffers, console strings).
	DataBase = 0x1000_0000
	// ArrayBase is the start of the kernel working-set arrays.
	ArrayBase = 0x2000_0000
)

// TransitionKind classifies how a phase is entered, which determines
// which VM statistics spike at the boundary.
type TransitionKind uint8

const (
	// TransFull performs device I/O, swaps kernel code, and moves the
	// working set: all three monitored metrics fire.
	TransFull TransitionKind = iota
	// TransCode swaps the kernel code variant only: CPU (translation
	// cache) fires; I/O stays silent.
	TransCode
	// TransParam moves/resizes the working set only: EXC (page faults)
	// fires; CPU and I/O stay silent.
	TransParam
)

func (t TransitionKind) String() string {
	switch t {
	case TransFull:
		return "full"
	case TransCode:
		return "code"
	case TransParam:
		return "param"
	}
	return fmt.Sprintf("transition(%d)", uint8(t))
}

// PhasePlan is the ground truth for one generated phase. Where it
// starts is marked by the guest itself: a SysPhaseMark with the phase
// ID at its entry, which the VM logs (vm.Machine.PhaseLog).
type PhasePlan struct {
	ID         int
	Kernel     string
	Transition TransitionKind
	Budget     uint64 // planned instructions for this phase
	WSWords    uint64 // working-set size in 8-byte words
	Segment    int    // owning macro-segment
}

// Plan is the generated benchmark's ground truth, used by the experiment
// harness to evaluate phase detection against guest PhaseMark records.
type Plan struct {
	Spec        Spec
	TotalTarget uint64
	IntervalLen uint64
	Phases      []PhasePlan
}

// vastSpan is the address span of one KVast window: tag bits go up to
// 63<<18 plus the 8 KB set window.
const vastSpan = 64<<18 + 8192

// l2Span is the address span of one KL2 window group: four 1 KB windows
// 256 KB apart.
const l2Span = 3<<18 + 1024

// l2WindowBytes is the size of one KL2 window.
const l2WindowBytes = 1024

// l2FootprintWords is KL2's resident footprint (4 windows) in words,
// reported in phase plans and used to bound episode scans.
const l2FootprintWords = 4 * l2WindowBytes / 8

// behavior is one (kernel kind, parameters) combination a benchmark
// alternates between.
type behavior struct {
	kind       KernelKind
	wsWords    uint64 // power of two (episode-scan bound for vast/l2)
	regionBase uint64 // array region (2x span, for param shifts)
	epMaskBits int
	epIters    int
	frags      [2]*Fragment // two code variants
	staged     [2]uint64    // staging addresses in the data segment
	hot        [2]uint64    // per-variant hot code pages
}

// span returns the per-window address span of the behaviour's region.
func (bh *behavior) span() uint64 {
	switch bh.kind {
	case KVast:
		return vastSpan
	case KL2:
		return l2Span
	default:
		return bh.wsWords * 8
	}
}

// prefaultRanges returns the address ranges the init phase pre-faults
// and L2-warms: both param-shift halves of the resident footprint. KVast
// is intentionally not prefaulted (its steady state is all-miss).
func (bh *behavior) prefaultRanges() [][2]uint64 {
	switch bh.kind {
	case KVast:
		return nil
	case KL2:
		// Four windows per half.
		var out [][2]uint64
		for half := uint64(0); half < 2; half++ {
			base := bh.regionBase + half*l2Span
			for t := uint64(0); t < 4; t++ {
				out = append(out, [2]uint64{base + t<<18, l2WindowBytes})
			}
		}
		return out
	default:
		return [][2]uint64{{bh.regionBase, 2 * bh.wsWords * 8}}
	}
}

// DefaultIntervalLen derives the base sampling interval (the paper's
// "1M instructions" unit) from a scaled budget: every benchmark gets on
// the order of 10,000 base intervals, as in the paper's setup where
// 29–240 G instructions are divided into 1M-instruction intervals.
func DefaultIntervalLen(totalInstr uint64) uint64 {
	l := totalInstr / 10_000
	// The floor guarantees that one warm-up interval carries enough
	// memory accesses to re-cover any resident working set — the
	// property the paper's 1M-instruction warm-up has at full scale.
	if l < 4000 {
		l = 4000
	}
	if l > 1_000_000 {
		l = 1_000_000
	}
	return l
}

// Build generates the guest program for a benchmark spec with the given
// total instruction budget and base interval length. It returns the
// loadable image and the ground-truth plan. Generation is fully
// deterministic in (spec.Name, totalInstr, intervalLen).
func Build(spec Spec, totalInstr, intervalLen uint64) (*asm.Image, *Plan) {
	if totalInstr < 50_000 {
		totalInstr = 50_000
	}
	if intervalLen == 0 {
		intervalLen = DefaultIntervalLen(totalInstr)
	}
	g := &generator{
		spec:     spec,
		total:    totalInstr,
		interval: intervalLen,
		rng:      mix.NewRNG(spec.Seed()),
		code:     asm.NewBuilder(CodeBase),
		data:     asm.NewDataSeg(DataBase),
		plan: &Plan{
			Spec:        spec,
			TotalTarget: totalInstr,
			IntervalLen: intervalLen,
		},
	}
	g.build()
	return g.image, g.plan
}

// BuildScaled is the common entry point: paper budget divided by scale,
// default interval derivation.
func BuildScaled(spec Spec, scale int) (*asm.Image, *Plan) {
	total := spec.ScaledInstr(scale)
	return Build(spec, total, DefaultIntervalLen(total))
}

type generator struct {
	spec     Spec
	total    uint64
	interval uint64
	rng      *mix.RNG
	code     *asm.Builder
	data     *asm.DataSeg
	plan     *Plan
	image    *asm.Image

	behaviors    []*behavior
	arrayCur     uint64
	ioSector     uint64
	phaseID      int
	ioBuf        uint64
	progressAddr uint64
	progressLen  uint64

	// Current kernel-state tracking to decide transition kinds.
	curBehavior int
	curVariant  int
	haveKernel  bool
}

func (g *generator) build() {
	g.arrayCur = ArrayBase
	g.makeBehaviors()
	g.stageFragments()

	ioBuf := g.data.Alloc("iobuf", 4096, 4096)
	banner := fmt.Sprintf("spec2000 %s ref=%s\n", g.spec.Name, g.spec.RefInput)
	bannerAddr := g.stageString("banner", banner)
	g.progressAddr = g.stageString("progress", fmt.Sprintf("%s: phase done\n", g.spec.Name))
	g.progressLen = uint64(len(g.spec.Name)) + 13
	g.ioBuf = ioBuf

	c := g.code
	// Static copy routine: copies r22 words from r20 to r21, link r23.
	c.Jmp("main")
	EmitCopyRoutine(c, "copyrt")

	c.Label("main")
	c.Movi(28, int64(HotBase))
	// Boot banner: console I/O during initialisation.
	c.Movi(10, int64(bannerAddr))
	c.Movi(11, int64(len(banner)))
	c.Sys(isa.SysConsoleOut)

	// Pre-fault and L2-warm the resident working sets ("loading the
	// data structures"): a strided store pass over each region. This is
	// the fault-heavy, erratic initialisation the paper's Figure 2
	// shows, and it establishes the L2-resident steady state the
	// phases then run in.
	for i, bh := range g.behaviors {
		for j, r := range bh.prefaultRanges() {
			label := fmt.Sprintf("prefault%d_%d", i, j)
			c.Movi(20, int64(r[0]))
			c.Movi(22, int64(r[1]/64))
			c.Label(label)
			c.St(isa.RegZero, 20, 0)
			c.I(isa.OpAddi, 20, 20, 64)
			c.I(isa.OpAddi, 22, 22, -1)
			c.Br(isa.OpBne, 22, isa.RegZero, label)
		}
	}

	// JIT warm-up: run every kernel variant once, briefly, from its hot
	// page — initialisation code exercising each routine, as real
	// programs do while building their data structures. This loads every
	// hot page with live translations, so that every later code
	// transition's copy evicts blocks and the CPU metric fires (a fresh
	// DBT page would otherwise give a silent first transition).
	for i, bh := range g.behaviors {
		for v := 0; v < 2; v++ {
			fr := bh.frags[v]
			c.Movi(20, int64(bh.staged[v]))
			c.Movi(21, int64(bh.hot[v]))
			c.Movi(22, int64(len(fr.Words)))
			c.Jal(23, "copyrt")
			c.Movi(14, int64(uint64(0x1111*(i+1)+v))|1<<45)
			c.Movi(15, int64(bh.regionBase))
			c.Movi(16, int64(bh.wsWords-1))
			c.Movi(17, 1)
			c.Movi(18, (1<<16)-1) // episodes effectively off
			c.Movi(19, 8)
			c.Movi(2, 64)
			c.Movi(28, int64(bh.hot[v]))
			c.Jalr(rLink, 28, 0)
		}
	}

	// Schedule: init subphases then the macro-segment schedule.
	schedule := g.makeSchedule()
	for _, ph := range schedule {
		g.emitPhase(ph, ioBuf)
	}

	// Orderly exit if the budget cap never fires.
	c.Movi(10, 0)
	c.Sys(isa.SysExit)

	img := &asm.Image{Entry: CodeBase}
	img.AddSegment(CodeBase, c.Words())
	img.Segments = append(img.Segments, g.data.Segments()...)
	g.image = img
}

// makeBehaviors picks the benchmark's 3–5 characteristic behaviours.
func (g *generator) makeBehaviors() {
	n := 3 + g.rng.Intn(3)
	var base []int
	if g.spec.FP {
		//            chase stream alu branchy fp mix vast l2
		base = []int{1, 3, 2, 1, 5, 2, 3, 2}
	} else {
		base = []int{3, 2, 3, 4, 0, 3, 2, 3}
	}
	// How memory-latency bound each kernel kind is; the benchmark's
	// MemBound personality pulls the palette toward matching kinds so
	// that phases within one benchmark have correlated IPC levels, as
	// in real SPEC programs.
	kindMem := []float64{0.35, 0.30, 0.0, 0.10, 0.05, 0.30, 1.0, 0.7}
	kindWeights := make([]int, len(base))
	for i, b := range base {
		affinity := kindMem[i]*g.spec.MemBound + (1-kindMem[i])*(1-g.spec.MemBound)
		kindWeights[i] = int(float64(b) * (0.1 + 4*affinity*affinity) * 10)
	}
	// Resident working sets are small (L1-scale) so that a phase
	// re-enters its steady microarchitectural state within one warm-up
	// interval after timing is re-enabled — the property the paper's
	// full-size workloads have relative to their 1M-instruction warm-up.
	// Mid- and high-latency memory behaviour comes from KL2 and KVast,
	// whose steady states are conflict-miss driven and therefore do not
	// depend on long-term cache history.
	wsChoices := []uint64{256, 512, 1 << 10} // words: 2/4/8 KB
	wsWeights := []int{3, 3, 2}
	seen := make(map[KernelKind]int)
	for i := 0; i < n; i++ {
		kind := KernelKind(g.rng.Pick(kindWeights))
		if i == 0 && g.spec.MemBound >= 0.75 {
			// Strongly memory-bound benchmarks always carry a vast
			// (all-miss) behaviour — their defining phase.
			kind = KVast
		}
		// Allow at most two behaviours of the same kind (they will
		// differ in working set).
		if seen[kind] >= 2 {
			kind = KernelKind((int(kind) + 1) % NumKernelKinds)
		}
		seen[kind]++
		ws := wsChoices[g.rng.Pick(wsWeights)]
		// Sequential and random array kernels must be able to re-cover
		// their footprint within one warm-up interval.
		if kind == KStream || kind == KChase || kind == KMix {
			ws = 256
		}
		if kind == KL2 {
			ws = l2FootprintWords
		}
		if kind == KVast {
			// The episode-scan bound spans the kernel's 8 KB set
			// window, so episodes on vast phases have vast-like memory
			// behaviour rather than scanning a warm prefix.
			ws = 1024
		}
		bh := &behavior{
			kind:       kind,
			wsWords:    ws,
			regionBase: g.arrayCur,
		}
		// Reserve two spans: param-shift transitions move to the second.
		g.arrayCur += 2 * bh.span()
		// Episode sizing: the base episode lasts ~1/16 of an interval,
		// so a sampling interval averages over several; the rare long
		// bursts (64x, see emitEpisode) span multiple intervals. The
		// trigger mask keeps total episode time at roughly 4-6% of
		// phase instructions.
		fr := BuildFragment(kind, 0, HotBase)
		bh.epIters = int(g.interval/16) / (fr.EpisodePerIter + 1)
		if bh.epIters < 4 {
			bh.epIters = 4
		}
		epLen := float64(fr.EpisodeFixed) + float64(fr.EpisodePerIter*bh.epIters)*EpisodeMeanMult
		share := 0.05
		period := epLen / (share * float64(fr.PerIter))
		bits := 0
		for (uint64(1) << bits) < uint64(period) {
			bits++
		}
		if bits < 5 {
			bits = 5
		}
		if bits > 16 {
			bits = 16
		}
		bh.epMaskBits = bits
		g.behaviors = append(g.behaviors, bh)
	}
}

// stageFragments assembles both code variants of every behaviour and
// stages them in the data segment for run-time copying. Each
// (behaviour, variant) owns a hot code page: real programs run distinct
// phases from distinct functions, which is what gives basic-block
// vectors their discriminating power (Lau et al.'s code-signature/
// performance correlation). The pages are still written at run time by
// the dispatcher's copy loop, so every code transition invalidates the
// translations of the previous visit — the CPU metric's signal.
func (g *generator) stageFragments() {
	for i, bh := range g.behaviors {
		for v := 0; v < 2; v++ {
			hot := HotBase + uint64(i*2+v)*4096
			fr := BuildFragment(bh.kind, v, hot)
			bh.frags[v] = fr
			bh.hot[v] = hot
			addr := g.data.Alloc(fmt.Sprintf("frag%d_v%d", i, v), uint64(len(fr.Words))*8, 8)
			for w, word := range fr.Words {
				g.data.SetWord(addr+uint64(w)*8, word)
			}
			bh.staged[v] = addr
		}
	}
}

func (g *generator) stageString(name, s string) uint64 {
	n := uint64(len(s))
	addr := g.data.Alloc(name, (n+7)&^7, 8)
	for off := uint64(0); off < n; off += 8 {
		var w uint64
		for b := uint64(0); b < 8 && off+b < n; b++ {
			w |= uint64(s[off+b]) << (8 * b)
		}
		g.data.SetWord(addr+off, w)
	}
	return addr
}

// scheduledPhase is an internal schedule entry before emission.
type scheduledPhase struct {
	behavior   int
	variant    int
	transition TransitionKind
	paramShift bool // use the second half of the array region
	Budget     uint64
	segment    int
}

// makeSchedule lays out init subphases and the macro-segment schedule.
func (g *generator) makeSchedule() []scheduledPhase {
	segments := g.spec.Segments()
	var out []scheduledPhase

	// Initialisation: three short, erratic subphases (the paper's
	// Figure 2 shows many phase changes during initialisation).
	initBudget := g.total / 100
	if initBudget < 4*g.interval {
		initBudget = 4 * g.interval
	}
	for i := 0; i < 3; i++ {
		out = append(out, scheduledPhase{
			behavior:   g.rng.Intn(len(g.behaviors)),
			variant:    g.rng.Intn(2),
			transition: TransFull,
			Budget:     initBudget/3 + uint64(g.rng.Intn(int(g.interval))),
			segment:    0,
		})
	}

	remaining := g.total - initBudget
	// perlbmk gets a compressed prefix so that its first ~6% of
	// execution contains six distinct phases, matching Figures 2 and 4.
	prefixSegs := 0
	if g.spec.Name == "perlbmk" {
		prefixSegs = 6
	}

	// Segment budget weights.
	weights := make([]float64, segments)
	var wsum float64
	for i := range weights {
		w := 0.5 + float64(g.rng.Intn(1000))/1000.0
		if i < prefixSegs {
			w = 0.01 * float64(segments) // compressed prefix segments
		}
		weights[i] = w
		wsum += w
	}

	// Behaviour sequence: random walk, avoiding long same-behaviour runs.
	prev := -1
	for s := 0; s < segments; s++ {
		bi := g.rng.Intn(len(g.behaviors))
		if bi == prev && len(g.behaviors) > 1 {
			bi = (bi + 1 + g.rng.Intn(len(g.behaviors)-1)) % len(g.behaviors)
		}
		prev = bi
		segBudget := uint64(float64(remaining) * weights[s] / wsum)
		if segBudget < 2*g.interval {
			segBudget = 2 * g.interval
		}
		subs := 1 + g.rng.Intn(3)
		for sub := 0; sub < subs; sub++ {
			ph := scheduledPhase{
				behavior: bi,
				segment:  s + 1,
				Budget:   segBudget / uint64(subs),
			}
			if sub == 0 {
				ph.transition = TransFull
				ph.variant = g.rng.Intn(2)
			} else if g.rng.Intn(2) == 0 {
				ph.transition = TransCode
				ph.variant = 1 - g.rng.Intn(2) // may or may not differ; forced below
			} else {
				ph.transition = TransParam
				ph.paramShift = sub%2 == 1
				ph.variant = -1 // keep current
			}
			out = append(out, ph)
		}
	}
	return out
}

// emitPhase emits the dispatcher code for one phase.
func (g *generator) emitPhase(ph scheduledPhase, ioBuf uint64) {
	c := g.code
	bh := g.behaviors[ph.behavior]
	variant := ph.variant
	if variant < 0 {
		variant = g.curVariant
		if ph.behavior != g.curBehavior || !g.haveKernel {
			variant = 0
		}
	}

	needCopy := !g.haveKernel || g.curBehavior != ph.behavior || g.curVariant != variant
	switch ph.transition {
	case TransFull:
		// Read the next slice of "input data" from the block device as
		// a burst of transfers, and log progress to the console — the
		// I/O activity applications show at major phase boundaries.
		for i := 0; i < 3; i++ {
			c.Movi(10, int64(g.ioSector))
			c.Movi(11, int64(ioBuf))
			c.Movi(12, 4)
			c.Sys(isa.SysBlockRead)
			g.ioSector += 4
		}
		c.Movi(10, int64(g.progressAddr))
		c.Movi(11, int64(g.progressLen))
		c.Sys(isa.SysConsoleOut)
		needCopy = true
	case TransCode:
		if !needCopy && g.haveKernel {
			// Force a genuine code change.
			variant = 1 - g.curVariant
			needCopy = true
		}
	case TransParam:
		// No I/O, no code change.
	}

	if needCopy {
		fr := bh.frags[variant]
		c.Movi(20, int64(bh.staged[variant]))
		c.Movi(21, int64(bh.hot[variant]))
		c.Movi(22, int64(len(fr.Words)))
		c.Jal(23, "copyrt")
	}
	g.curBehavior, g.curVariant, g.haveKernel = ph.behavior, variant, true
	fr := bh.frags[variant]

	// Ground-truth phase marker.
	g.phaseID++
	c.Movi(10, int64(g.phaseID))
	c.Sys(isa.SysPhaseMark)

	// Kernel parameters. A parameter transition changes the working
	// set without touching code or devices: resident kernels double
	// their index mask (the second half of the region is pre-faulted,
	// so the larger set is still L2-resident); the vast kernel moves to
	// its second window (fresh tags — its steady state is all-miss
	// either way).
	base := bh.regionBase
	ws := bh.wsWords
	if ph.paramShift {
		if bh.kind == KVast {
			base += bh.span()
		} else if bh.kind != KL2 {
			ws = bh.wsWords * 2
		}
	}
	// Full-width LCG seed: the episode trigger inspects bits 44 and up,
	// which must be populated from the first iteration.
	seed := int64(g.rng.Next() | 1<<45)
	c.Movi(14, seed)
	c.Movi(15, int64(base))
	c.Movi(16, int64(ws-1))
	c.Movi(17, 1)
	c.Movi(18, int64(uint64(1)<<bh.epMaskBits-1))
	c.Movi(19, int64(bh.epIters))

	iters := uint64(float64(ph.Budget) / fr.EffectivePerIter(bh.epMaskBits, bh.epIters))
	if iters < 1 {
		iters = 1
	}
	c.Movi(2, int64(iters))
	c.Movi(28, int64(bh.hot[variant]))
	c.Jalr(rLink, 28, 0)

	g.plan.Phases = append(g.plan.Phases, PhasePlan{
		ID:         g.phaseID,
		Kernel:     fr.Name(),
		Transition: ph.transition,
		Budget:     ph.Budget,
		WSWords:    ws,
		Segment:    ph.segment,
	})
}
