package workload

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Kernel register conventions. Kernels are position-independent code
// fragments executed from the hot code page; the dispatcher loads the
// parameter registers before calling a kernel via JALR.
//
//	r2   iteration count (kernel decrements to zero)
//	r3-r9  kernel temporaries / accumulators
//	r10-r12 syscall arguments (episodes clobber r10)
//	r13  scratch
//	r14  guest LCG state (advanced every iteration)
//	r15  array base address (bytes)
//	r16  index mask (in 8-byte words; working set = (mask+1)*8 bytes)
//	r17  secondary parameter (kernel-specific)
//	r18  episode probability mask (applied to LCG bits 44..)
//	r19  episode inner-loop iteration count
//	r29  episode loop counter
//	r30  return link
const (
	rIter  = 2
	rT0    = 3
	rT1    = 4
	rT2    = 5
	rT3    = 6
	rT4    = 7
	rT5    = 8
	rT6    = 9
	rScr   = 13
	rLCG   = 14
	rBase  = 15
	rMask  = 16
	rEpMsk = 18
	rEpIt  = 19
	rEpCnt = 29
	rLink  = 30
)

// KernelKind enumerates the kernel archetypes.
type KernelKind uint8

const (
	KChase   KernelKind = iota // dependent pseudo-random loads (memory-latency bound)
	KStream                    // sequential loads with reduction (bandwidth/L1 behaviour)
	KALU                       // independent integer chains (ILP bound, high IPC)
	KBranchy                   // data-dependent unpredictable branches
	KFP                        // floating-point chains (FP unit bound)
	KMix                       // loads + ALU + semi-predictable branches
	KVast                      // dependent loads over a vast, non-resident set
	// (always misses to memory; L2-set-restricted
	// so it does not evict other phases' data)
	KL2 // dependent loads with steady-state L1
	// conflict misses that hit in the L2

	numKernelKinds
)

// NumKernelKinds is the number of kernel archetypes.
const NumKernelKinds = int(numKernelKinds)

var kernelNames = [...]string{"chase", "stream", "alu", "branchy", "fp", "mix", "vast", "l2"}

func (k KernelKind) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// Fragment is an assembled, position-independent kernel body plus the
// bookkeeping the generator needs to budget phases.
type Fragment struct {
	Kind    KernelKind
	Variant int
	Words   []uint64
	// PerIter is the instruction count of one episode-free loop
	// iteration (including loop control and the episode check).
	PerIter int
	// Prologue is the instruction count executed once on kernel entry.
	Prologue int
	// EpisodeFixed and EpisodePerIter describe episode cost:
	// episode instructions = EpisodeFixed + EpisodePerIter * r19 * mult,
	// where mult is a random power of two with mean EpisodeMeanMult.
	EpisodeFixed   int
	EpisodePerIter int
}

// EpisodeMeanMult is the expected episode length multiplier
// ((1023*1 + 1*128)/1024 for the rare long-burst draw).
const EpisodeMeanMult = (1023.0 + 128.0) / 1024.0

// Name returns "kind/vN".
func (f *Fragment) Name() string { return fmt.Sprintf("%s/v%d", f.Kind, f.Variant) }

// lcgStep advances the guest LCG: r14 = r14*5 + c. Three instructions,
// no extra registers. c varies per call site so that different kernels
// walk different sequences.
func lcgStep(b *asm.Builder, c int32) {
	b.I(isa.OpSlli, rScr, rLCG, 2)
	b.R(isa.OpAdd, rLCG, rLCG, rScr)
	b.I(isa.OpAddi, rLCG, rLCG, c|1) // increment must be odd for full period
}

// episodeCheck emits the rare-branch test into the maintenance episode.
// Three instructions on the common path.
func episodeCheck(b *asm.Builder, epLabel string) {
	b.I(isa.OpSrli, rScr, rLCG, 44)
	b.R(isa.OpAnd, rScr, rScr, rEpMsk)
	b.Br(isa.OpBeq, rScr, isa.RegZero, epLabel)
}

// loopEnd emits the iteration decrement and back-edge.
func loopEnd(b *asm.Builder, loopLabel string) {
	b.I(isa.OpAddi, rIter, rIter, -1)
	b.Br(isa.OpBne, rIter, isa.RegZero, loopLabel)
}

// emitEpisode emits the maintenance episode: a pair of system calls
// around a low-IPC scan (random loads + integer divides). Episodes model
// the sporadic housekeeping activity (allocator sweeps, buffer flushes,
// runtime bookkeeping) that real applications interleave with their
// kernels; they are what makes the EXC metric noisy between phase
// boundaries. Returns (fixed, perIter) instruction counts.
func emitEpisode(b *asm.Builder, epLabel, retLabel string) (fixed, perIter int) {
	b.Label(epLabel)
	start := b.Len()
	b.Sys(isa.SysTimeQuery)
	// Most episodes are short — many fit in one sampling interval, so
	// samples average over them. Rarely (1 in 1024) an episode is a
	// long maintenance burst, 64x the base length, opening with a storm
	// of system calls: the EXC spike that burst produces is exactly the
	// kind of signal that triggers EXC-monitored Dynamic Sampling, whose
	// subsequent sample then measures the burst itself rather than the
	// surrounding phase — the systematic bias behind the paper's finding
	// that EXC is an inferior variable to monitor.
	b.I(isa.OpSrli, rScr, rLCG, 24)
	b.I(isa.OpAndi, rScr, rScr, 1023)
	b.Br(isa.OpBne, rScr, isa.RegZero, epLabel+".short")
	// Maintenance burst: a storm of system calls (runtime housekeeping
	// chatter) loud enough to stand out of the steady short-episode
	// syscall rate — the spike the EXC monitor reacts to.
	b.I(isa.OpAddi, rScr, isa.RegZero, 32)
	b.Label(epLabel + ".syss")
	b.Sys(isa.SysTimeQuery)
	b.I(isa.OpAddi, rScr, rScr, -1)
	b.Br(isa.OpBne, rScr, isa.RegZero, epLabel+".syss")
	b.I(isa.OpSlli, rEpCnt, rEpIt, 7)
	b.Jmp(epLabel + ".go")
	b.Label(epLabel + ".short")
	b.R(isa.OpAdd, rEpCnt, rEpIt, isa.RegZero)
	b.Label(epLabel + ".go")
	fixedHead := b.Len() - start

	b.Label(epLabel + ".loop")
	lstart := b.Len()
	lcgStep(b, 0x5deb)
	b.I(isa.OpSrli, rScr, rLCG, 20)
	b.R(isa.OpAnd, rScr, rScr, rMask)
	b.I(isa.OpSlli, rScr, rScr, 3)
	b.R(isa.OpAdd, rScr, rScr, rBase)
	b.Ld(rT0, rScr, 0)
	b.R(isa.OpDiv, rT1, rT0, rEpIt)
	b.I(isa.OpAddi, rEpCnt, rEpCnt, -1)
	b.Br(isa.OpBne, rEpCnt, isa.RegZero, epLabel+".loop")
	perIter = b.Len() - lstart

	b.Sys(isa.SysTimeQuery)
	b.Jmp(retLabel)
	fixed = fixedHead + 2
	return fixed, perIter
}

// BuildFragment assembles one kernel archetype variant, position
// independent, nominally based at hotBase.
func BuildFragment(kind KernelKind, variant int, hotBase uint64) *Fragment {
	b := asm.NewBuilder(hotBase)
	f := &Fragment{Kind: kind, Variant: variant}

	// Prologue: per-kind register setup executed once per call.
	switch kind {
	case KFP:
		// Seed FP accumulators with finite values.
		b.I(isa.OpAddi, rT0, isa.RegZero, 3)
		b.Emit(isa.Inst{Op: isa.OpFcvtIF, Rd: rT0, Rs1: rT0})
		b.I(isa.OpAddi, rT1, isa.RegZero, 5)
		b.Emit(isa.Inst{Op: isa.OpFcvtIF, Rd: rT1, Rs1: rT1})
		b.I(isa.OpAddi, rT2, isa.RegZero, 7)
		b.Emit(isa.Inst{Op: isa.OpFcvtIF, Rd: rT2, Rs1: rT2})
		b.I(isa.OpAddi, rT3, isa.RegZero, 9)
		b.Emit(isa.Inst{Op: isa.OpFcvtIF, Rd: rT3, Rs1: rT3})
	default:
		b.R(isa.OpXor, rT0, rT0, rT0)
		b.R(isa.OpXor, rT1, rT1, rT1)
		b.R(isa.OpXor, rT2, rT2, rT2)
	}
	f.Prologue = b.Len()

	b.Label("loop")
	loopStart := b.Len()

	switch kind {
	case KChase:
		const chains = 2 // two interleaved dependent chains
		for c := 0; c < chains; c++ {
			idx, dst := uint8(rT1+2*c), uint8(rT0+2*c)
			// Next index depends on the previous loaded value: a true
			// load-to-address dependence chain.
			b.R(isa.OpAdd, idx, idx, dst)
			b.I(isa.OpSlli, rScr, idx, 2)
			b.R(isa.OpAdd, idx, idx, rScr) // idx *= 5
			b.I(isa.OpAddi, idx, idx, int32(17+c*2)|1)
			b.R(isa.OpAnd, rScr, idx, rMask)
			b.I(isa.OpSlli, rScr, rScr, 3)
			b.R(isa.OpAdd, rScr, rScr, rBase)
			b.Ld(dst, rScr, 0)
		}
		lcgStep(b, 0x1234)

	case KStream:
		const unroll = 4
		for u := 0; u < unroll; u++ {
			b.R(isa.OpAnd, rScr, rT1, rMask)
			b.I(isa.OpSlli, rScr, rScr, 3)
			b.R(isa.OpAdd, rScr, rScr, rBase)
			b.Ld(rT0, rScr, 0)
			b.R(isa.OpAdd, rT2, rT2, rT0)
			b.I(isa.OpAddi, rT1, rT1, 1)
		}
		lcgStep(b, 0x2468)

	case KALU:
		// Three independent dependence chains over six registers;
		// the OoO core can sustain near full width.
		const n = 12
		ops := []isa.Op{isa.OpAdd, isa.OpXor, isa.OpSub, isa.OpOr, isa.OpAdd, isa.OpXor}
		for i := 0; i < n; i++ {
			d := uint8(rT0 + i%3)
			s := uint8(rT3 + i%3)
			b.R(ops[i%len(ops)], d, d, s)
			if i%4 == 3 {
				b.R(isa.OpAdd, s, s, d)
			}
		}
		lcgStep(b, 0x1357)

	case KBranchy:
		lcgStep(b, 0x7531)
		// Data-dependent branches, biased ~25% taken: hard enough that
		// the predictor misses steadily, but with a stable majority
		// direction so prediction quality does not depend on long
		// training history.
		b.I(isa.OpSrli, rScr, rLCG, 60)
		b.I(isa.OpAndi, rScr, rScr, 3)
		b.Br(isa.OpBeq, rScr, isa.RegZero, "b1")
		b.R(isa.OpAdd, rT0, rT0, rT1)
		b.R(isa.OpXor, rT1, rT1, rT0)
		b.Jmp("b2")
		b.Label("b1")
		b.R(isa.OpSub, rT0, rT0, rT2)
		b.R(isa.OpAdd, rT2, rT2, rT0)
		b.Label("b2")
		// Second biased branch on different random bits.
		b.I(isa.OpSrli, rScr, rLCG, 52)
		b.I(isa.OpAndi, rScr, rScr, 3)
		b.Br(isa.OpBeq, rScr, isa.RegZero, "b3")
		b.R(isa.OpAdd, rT3, rT3, rT0)
		b.Label("b3")

	case KFP:
		const n = 8
		fops := []isa.Op{isa.OpFadd, isa.OpFmul, isa.OpFadd, isa.OpFmul}
		for i := 0; i < n; i++ {
			d := uint8(rT0 + i%3)
			s := uint8(rT3)
			b.R(fops[i%len(fops)], d, d, s)
		}
		b.R(isa.OpAdd, rT4, rT4, rT5)
		lcgStep(b, 0x4321)

	case KMix:
		lcgStep(b, 0x6789)
		// One pseudo-random (non-dependent) load.
		b.I(isa.OpSrli, rScr, rLCG, 24)
		b.R(isa.OpAnd, rScr, rScr, rMask)
		b.I(isa.OpSlli, rScr, rScr, 3)
		b.R(isa.OpAdd, rScr, rScr, rBase)
		b.Ld(rT0, rScr, 0)
		b.R(isa.OpAdd, rT1, rT1, rT0)
		b.R(isa.OpXor, rT2, rT2, rT1)
		b.R(isa.OpAdd, rT3, rT3, rT2)
		// One unpredictable branch.
		b.I(isa.OpSrli, rScr, rLCG, 62)
		b.Br(isa.OpBne, rScr, isa.RegZero, "m1")
		b.R(isa.OpAdd, rT4, rT4, rT3)
		b.Label("m1")

	case KVast:
		// Dependent loads over a large non-resident footprint. The
		// address keeps the L2 set index within a 64-set window (bits
		// 7..12) while varying the tag (bits 18..23): every access
		// conflict-misses to memory, but only a small slice of the L2
		// is polluted, so the benchmark's resident working sets survive
		// these phases — like a streaming/pointer-chasing application
		// with poor temporal locality (mcf, art). Parallel chains
		// provide a little memory-level parallelism, keeping IPC in
		// the range real memory-bound codes show.
		const chains = 2
		for c := 0; c < chains; c++ {
			idx, dst := uint8(rT1+2*c), uint8(rT0+2*c)
			b.R(isa.OpAdd, idx, idx, dst) // load-to-address dependence
			b.I(isa.OpSlli, rScr, idx, 2)
			b.R(isa.OpAdd, idx, idx, rScr)
			b.I(isa.OpAddi, idx, idx, int32(29+c*2)|1)
			b.I(isa.OpSrli, rScr, idx, 10)
			b.I(isa.OpAndi, rScr, rScr, 63)
			b.I(isa.OpSlli, rScr, rScr, 7)
			b.I(isa.OpSrli, rT6, idx, 30)
			b.I(isa.OpAndi, rT6, rT6, 63)
			b.I(isa.OpSlli, rT6, rT6, 18)
			b.R(isa.OpAdd, rScr, rScr, rT6)
			b.R(isa.OpAdd, rScr, rScr, rBase)
			b.Ld(dst, rScr, 0)
		}
		lcgStep(b, 0x9bd1)

	case KL2:
		// Dependent loads over four 2 KB windows 256 KB apart: the
		// footprint (8 KB) exceeds its L1 set slice (4 KB, 2-way) but
		// fits its L2 set slice, so the steady state is ~50% L1
		// conflict misses served by the L2 — a mid-latency memory phase
		// whose small footprint re-warms within one interval.
		const chains = 2
		for c := 0; c < chains; c++ {
			idx, dst := uint8(rT1+2*c), uint8(rT0+2*c)
			b.R(isa.OpAdd, idx, idx, dst) // load-to-address dependence
			b.I(isa.OpSlli, rScr, idx, 2)
			b.R(isa.OpAdd, idx, idx, rScr)
			b.I(isa.OpAddi, idx, idx, int32(41+c*2)|1)
			b.I(isa.OpSrli, rScr, idx, 10)
			b.I(isa.OpAndi, rScr, rScr, 15)
			b.I(isa.OpSlli, rScr, rScr, 6)
			b.I(isa.OpSrli, rT6, idx, 40)
			b.I(isa.OpAndi, rT6, rT6, 3)
			b.I(isa.OpSlli, rT6, rT6, 18)
			b.R(isa.OpAdd, rScr, rScr, rT6)
			b.R(isa.OpAdd, rScr, rScr, rBase)
			b.Ld(dst, rScr, 0)
		}
		lcgStep(b, 0x3b47)

	default:
		panic(fmt.Sprintf("workload: unknown kernel kind %d", kind))
	}

	if variant == 1 {
		// Variant 1 is the same algorithm "compiled differently": a few
		// extra bookkeeping instructions change the code signature (and
		// the translation-cache contents) while perturbing performance
		// only mildly — like a recompiled or specialised routine.
		b.R(isa.OpXor, rT5, rT5, rT0)
		b.R(isa.OpAdd, rT5, rT5, rT1)
		b.I(isa.OpSlli, rScr, rT5, 1)
		b.R(isa.OpOr, rT5, rT5, rScr)
	}
	episodeCheck(b, "ep")
	b.Label("after_ep")
	loopEnd(b, "loop")
	f.PerIter = b.Len() - loopStart

	// Return to the dispatcher.
	b.Jalr(isa.RegZero, rLink, 0)

	// Episode body lives after the return so the hot loop stays compact.
	f.EpisodeFixed, f.EpisodePerIter = emitEpisode(b, "ep", "after_ep")

	f.Words = b.Words()
	return f
}

// EffectivePerIter returns the expected instructions per loop iteration
// including the amortised episode cost, for phase budgeting. epMaskBits
// is log2 of the episode period; epIters is the episode inner count.
func (f *Fragment) EffectivePerIter(epMaskBits, epIters int) float64 {
	p := 1.0 / float64(uint64(1)<<epMaskBits)
	epCost := float64(f.EpisodeFixed) + float64(f.EpisodePerIter*epIters)*EpisodeMeanMult
	return float64(f.PerIter) + p*epCost
}
