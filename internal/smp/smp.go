// Package smp simulates a multi-core system: several guests, each with
// its own VM and out-of-order core, sharing the L2 cache — the
// "complete multi-core, multi-socket system" the paper's conclusions
// point to as the destination for VM-coupled timing simulation.
//
// The model is a consolidation (multiprogrammed) scenario: independent
// guest programs time-share nothing but contend for shared L2 capacity.
// Guests advance in fixed instruction quanta; their cache footprints
// interleave in the shared L2 the way co-scheduled workloads' footprints
// do. Simplifications (documented here, tested in smp_test.go): no
// cache coherence (guests share no memory), no shared-port arbitration,
// and per-core cycle domains.
//
// Execution is parallel by default: every unfinished guest runs its
// quantum on its own host goroutine and the guests rendezvous at a
// deterministic barrier at each quantum boundary (see parallel.go and
// DESIGN.md §16). The schedule's observable results — statistics, IPC
// estimates, rendered reports — are bit-identical to the sequential
// round-robin reference schedule, which lives with the package's tests
// (equivalence_test.go): TestSMPEquivalence pins the identity across
// GOMAXPROCS values, quantum sizes, and execution modes.
//
// System-level Dynamic Sampling is sampling.Dynamic itself: a *System
// is a sampling.Target whose guests move together, and it monitors the
// *sum* of the guests' VM statistics. A phase change in any guest
// triggers a timed interval on every core, which is what a shared
// back-end has to do anyway since the cores' behaviour is coupled
// through the shared cache.
package smp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/timing"
	"repro/internal/vm"
)

// Config parameterises the system.
type Config struct {
	// Quantum is the scheduling quantum in instructions (default
	// 10000): the rendezvous granularity of the schedule. Smaller quanta
	// interleave the shared-L2 footprints more finely.
	Quantum uint64
	// Obs, when non-nil, receives scheduler metrics: barrier rounds,
	// quanta executed, replayed shared-L2 events, per-guest instruction
	// and sample counters, and the sampling driver's series. Purely
	// observational.
	Obs *obs.Registry
}

// Guest is one core+VM pair.
type Guest struct {
	Name    string
	Machine *vm.Machine
	Core    *timing.Core

	executed uint64
	budget   uint64

	// est is the guest's IPC estimate over every run of the system,
	// samples the timed intervals it contributed to; from and mark are
	// where the current run began.
	est     sampling.Estimator
	samples int
	from    uint64
	mark    timing.Marker

	// caps are the double-buffered event-capture sinks for timed
	// parallel quanta: the round's parity selects the buffer, so the
	// replayer can drain round k while the guest's VM already fills
	// round k+1 (see run).
	caps [2]capture

	obsInstr   *obs.Counter
	obsSamples *obs.Counter
}

// Executed returns the guest's retired instruction count.
func (g *Guest) Executed() uint64 { return g.executed }

// Done reports whether the guest reached its budget or halted.
func (g *Guest) Done() bool {
	return g.executed >= g.budget || g.Machine.Halted()
}

// remaining returns how many of up to n instructions the guest may
// still execute. A guest at or past its budget has zero remaining —
// the comparison is explicit because budget-executed is uint64
// arithmetic: without the guard, a guest past its budget (however it
// got there) would underflow into a near-2^64 allowance and blow
// straight past its budget.
func (g *Guest) remaining(n uint64) uint64 {
	if g.executed >= g.budget {
		return 0
	}
	if r := g.budget - g.executed; r < n {
		return r
	}
	return n
}

// System is a set of guests sharing an L2.
type System struct {
	cfg      Config
	sharedL2 *cache.Cache
	guests   []*Guest

	// reference, when non-nil, runs in place of the parallel schedule.
	// Only the package's tests set it, to the round-robin schedule the
	// parallel one is defined against (equivalence_test.go).
	reference func(s *System, n uint64, timed bool)

	obsRounds *obs.Counter
	obsQuanta *obs.Counter
	obsReplay *obs.Counter
}

// New creates an empty system.
func New(cfg Config) *System {
	if cfg.Quantum == 0 {
		cfg.Quantum = 10_000
	}
	return &System{
		cfg:       cfg,
		sharedL2:  cache.New(timing.DefaultConfig().L2),
		obsRounds: cfg.Obs.Counter("smp_barrier_rounds_total", "schedule", "parallel"),
		obsQuanta: cfg.Obs.Counter("smp_quanta_total", "schedule", "parallel"),
		obsReplay: cfg.Obs.Counter("smp_replay_events_total"),
	}
}

// SharedL2 exposes the shared cache (for statistics).
func (s *System) SharedL2() *cache.Cache { return s.sharedL2 }

// Guests returns the attached guests.
func (s *System) Guests() []*Guest { return s.guests }

// AddGuest attaches a guest running the image with an instruction
// budget.
func (s *System) AddGuest(name string, img *asm.Image, budget uint64) *Guest {
	m := vm.New(vm.Config{})
	m.Load(img)
	coreCfg := timing.DefaultConfig()
	coreCfg.SharedL2 = s.sharedL2
	g := &Guest{
		Name:       name,
		Machine:    m,
		Core:       timing.NewCore(coreCfg),
		budget:     budget,
		obsInstr:   s.cfg.Obs.Counter("smp_guest_instructions_total", "guest", name),
		obsSamples: s.cfg.Obs.Counter("smp_guest_samples_total", "guest", name),
	}
	s.guests = append(s.guests, g)
	return g
}

// Done reports whether every guest finished.
func (s *System) Done() bool {
	for _, g := range s.guests {
		if !g.Done() {
			return false
		}
	}
	return len(s.guests) > 0
}

// Executed returns the furthest guest's retired instruction count.
// Every guest still running has executed exactly that much: a run
// stops short for a guest only at its budget or its halt.
func (s *System) Executed() uint64 {
	var n uint64
	for _, g := range s.guests {
		n = max(n, g.executed)
	}
	return n
}

// RunFast advances every guest by up to n instructions at full VM speed
// and returns how far Executed moved.
func (s *System) RunFast(n uint64) uint64 { _, ex := s.advance(n, false, false); return ex }

// RunDetailWarm advances every guest by up to n instructions through
// its core without recording a measurement.
func (s *System) RunDetailWarm(n uint64) uint64 { _, ex := s.advance(n, true, false); return ex }

// RunTimed advances every guest by up to n instructions in detail and
// returns the guests' combined IPC over the interval — summed
// instructions over summed cycles — and how far Executed moved.
func (s *System) RunTimed(n uint64) (ipc float64, executed uint64) {
	return s.advance(n, true, true)
}

// advance runs every guest by up to n instructions, through its core
// when detailed, and hands each guest's share of the run to its
// estimator: a timed share as a sample, counted only for a guest that
// executed part of it, any other as functional instructions.
func (s *System) advance(n uint64, detailed, timed bool) (float64, uint64) {
	before := s.Executed()
	for _, g := range s.guests {
		g.from, g.mark = g.executed, g.Core.Marker()
	}
	s.run(n, detailed)
	var sum timing.Marker
	for _, g := range s.guests {
		ex, mk := g.executed-g.from, g.Core.Marker()
		sum.Cycles += mk.Cycles - g.mark.Cycles
		sum.Instrs += mk.Instrs - g.mark.Instrs
		if !timed {
			g.est.Functional(ex)
		} else if g.est.Sample(timing.IPC(g.mark, mk), ex) {
			g.samples++
			g.obsSamples.Inc()
		}
	}
	return timing.IPC(timing.Marker{}, sum), s.Executed() - before
}

// Stat returns the sum of the guests' values of a VM statistic.
func (s *System) Stat(m vm.Metric) uint64 {
	var v uint64
	for _, g := range s.guests {
		v += g.Machine.Stats().Value(m)
	}
	return v
}

// Obs returns the registry the system reports into (nil for none).
func (s *System) Obs() *obs.Registry { return s.cfg.Obs }

// Estimate is one guest's sampled result.
type Estimate struct {
	Name string
	// IPC is the guest's cumulative sampled-IPC estimate, always
	// finite: a guest with no sample reports 0 and Samples == 0.
	IPC float64
	// Samples counts the timed intervals this guest contributed
	// instructions to: a guest that halts early stops accumulating
	// them while the rest of the system keeps measuring.
	Samples int
}

// DynamicSample runs sampling.Dynamic on the system with a base
// interval of interval instructions per guest: one settle, one warm and
// one timed interval per measurement. A guest's estimate covers every
// run of the system, not only this call's.
func (s *System) DynamicSample(metric vm.Metric, sensitivityPct float64, interval uint64, maxFunc int) ([]Estimate, error) {
	if len(s.guests) == 0 {
		return nil, fmt.Errorf("smp: no guests attached")
	}
	if interval == 0 {
		return nil, fmt.Errorf("smp: zero interval")
	}
	sampling.NewDynamic(metric, sensitivityPct, 1, maxFunc).RunOn(s, interval)
	out := make([]Estimate, len(s.guests))
	for i, g := range s.guests {
		out[i] = Estimate{Name: g.Name, IPC: g.est.IPC(), Samples: g.samples}
	}
	return out, nil
}

// Report renders the system's per-guest state, estimates, and
// shared-L2 summary as a deterministic text artifact. Floats carry
// both a readable decimal and an exact hexadecimal rendering, so a
// byte-compare of two reports is a bit-compare of the runs; the
// equivalence harness (equivalence_test.go) renders through here.
func (s *System) Report(ests []Estimate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "smp system: %d guests, quantum %d\n", len(s.guests), s.cfg.Quantum)
	for i, g := range s.guests {
		mk := g.Core.Marker()
		st := g.Machine.Stats()
		fmt.Fprintf(&b, "  guest %-10s executed=%d instr=%d cycles=%d detailed=%d",
			g.Name, g.executed, st.Instructions, mk.Cycles, mk.Instrs)
		if ests != nil && i < len(ests) {
			fmt.Fprintf(&b, " ipc=%.4f (%x) samples=%d",
				ests[i].IPC, math.Float64bits(ests[i].IPC), ests[i].Samples)
		}
		b.WriteByte('\n')
	}
	l2 := s.sharedL2.Stats()
	fmt.Fprintf(&b, "  shared L2: %d hits, %d misses, digest %016x\n",
		l2.Hits, l2.Misses, s.sharedL2.Digest())
	return b.String()
}
