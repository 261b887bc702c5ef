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
// System-level Dynamic Sampling works exactly as in the single-core
// case, monitoring the *sum* of the guests' VM statistics: a phase
// change in any guest triggers a timed interval on every core, which is
// what a shared back-end has to do anyway since the cores' behaviour is
// coupled through the shared cache.
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
	// Timing is the per-core configuration (its L2 geometry defines
	// the shared L2).
	Timing timing.Config
	// VM is the per-guest VM configuration.
	VM vm.Config
	// Obs, when non-nil, receives scheduler metrics: barrier rounds,
	// quanta executed, replayed shared-L2 events, and per-guest
	// instruction and sample counters. Purely observational.
	Obs *obs.Registry
}

func (c *Config) setDefaults() {
	if c.Quantum == 0 {
		c.Quantum = 10_000
	}
	if c.Timing.Width == 0 {
		c.Timing = timing.DefaultConfig()
	}
}

// Guest is one core+VM pair.
type Guest struct {
	Name    string
	Machine *vm.Machine
	Core    *timing.Core

	executed uint64
	budget   uint64

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
	cfg.setDefaults()
	return &System{
		cfg:       cfg,
		sharedL2:  cache.New(cfg.Timing.L2),
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
	m := vm.New(s.cfg.VM)
	m.Load(img)
	coreCfg := s.cfg.Timing
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

// RunFast advances every guest by up to n instructions at full VM speed.
func (s *System) RunFast(n uint64) { s.run(n, false) }

// RunTimed advances every guest by up to n instructions in detail and
// returns each guest's IPC over the interval.
func (s *System) RunTimed(n uint64) []float64 {
	marks := make([]timing.Marker, len(s.guests))
	for i, g := range s.guests {
		marks[i] = g.Core.Marker()
	}
	s.run(n, true)
	ipcs := make([]float64, len(s.guests))
	for i, g := range s.guests {
		ipcs[i] = timing.IPC(marks[i], g.Core.Marker())
	}
	return ipcs
}

// statsSum returns the sum of the guests' monitored statistic.
func (s *System) statsSum(m vm.Metric) uint64 {
	var v uint64
	for _, g := range s.guests {
		v += g.Machine.Stats().Value(m)
	}
	return v
}

// Estimate is one guest's sampled result.
type Estimate struct {
	Name string
	// IPC is the guest's cumulative sampled-IPC estimate. It is always
	// finite: a guest that halted before contributing any detailed
	// interval reports 0, with Samples == 0 making the absence of
	// measurements visible, rather than a 0/0 NaN that would poison
	// JSON journaling.
	IPC float64
	// Samples counts the detailed intervals this guest actually
	// contributed instructions to — not the system-wide interval
	// count. A guest that halts early stops accumulating samples while
	// the rest of the system keeps measuring.
	Samples int
}

// DynamicSample runs system-level Dynamic Sampling: every guest
// executes interval-sized chunks; the monitored variable is the sum of
// the guests' VM statistics; on a detection, the next interval is
// simulated in detail on every core (after one settle and one warm
// interval, as in the single-core policy).
func (s *System) DynamicSample(metric vm.Metric, sensitivityPct float64, interval uint64, maxFunc int) ([]Estimate, error) {
	if len(s.guests) == 0 {
		return nil, fmt.Errorf("smp: no guests attached")
	}
	if interval == 0 {
		return nil, fmt.Errorf("smp: zero interval")
	}
	ests := make([]sampling.Estimator, len(s.guests))
	samples := make([]int, len(s.guests))

	det := sampling.PhaseDetector{SensitivityPct: sensitivityPct, MaxFunc: maxFunc}
	timed := false
	var prevSum uint64

	for !s.Done() {
		var executed []uint64
		before := make([]uint64, len(s.guests))
		for i, g := range s.guests {
			before[i] = g.executed
		}
		if timed {
			s.RunFast(interval)   // settle
			s.run(interval, true) // detailed warm (not recorded)
			mid := make([]uint64, len(s.guests))
			for i, g := range s.guests {
				mid[i] = g.executed
			}
			ipcs := s.RunTimed(interval)
			executed = make([]uint64, len(s.guests))
			for i, g := range s.guests {
				warmAndSettle := mid[i] - before[i]
				ests[i].Functional(warmAndSettle)
				// Count the interval only for guests that contributed
				// detailed instructions to it: a guest that halted
				// during an earlier interval executes nothing here, and
				// crediting it with the sample would claim measurements
				// it never produced.
				if ests[i].Sample(ipcs[i], g.executed-mid[i]) {
					samples[i]++
					g.obsSamples.Inc()
				}
				executed[i] = g.executed - before[i]
			}
		} else {
			s.RunFast(interval)
			executed = make([]uint64, len(s.guests))
			for i, g := range s.guests {
				executed[i] = g.executed - before[i]
				ests[i].Functional(executed[i])
			}
		}
		var total uint64
		for _, e := range executed {
			total += e
		}
		if total == 0 {
			break
		}

		sum := s.statsSum(metric)
		decision, _ := det.Observe(sum - prevSum)
		prevSum = sum
		timed = decision.Sample()
	}

	out := make([]Estimate, len(s.guests))
	for i, g := range s.guests {
		ipc := ests[i].IPC()
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			ipc = 0 // belt and braces: estimates are journaled as JSON
		}
		out[i] = Estimate{Name: g.Name, IPC: ipc, Samples: samples[i]}
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
