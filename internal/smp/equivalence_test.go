package smp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/vm"
	"repro/internal/workload"
)

// runSequential is the reference schedule: round-robin on the calling
// goroutine, each guest's quantum executing — and, when timed, feeding
// its core and therefore the shared L2 — in guest order. The parallel
// schedule (System.run) is defined as bit-identical to this one.
func runSequential(s *System, n uint64, timed bool) {
	remaining := make([]uint64, len(s.guests))
	for i, g := range s.guests {
		remaining[i] = g.remaining(n)
	}
	for {
		progress := false
		for i, g := range s.guests {
			if remaining[i] == 0 || g.Machine.Halted() {
				continue
			}
			q := s.cfg.Quantum
			if q > remaining[i] {
				q = remaining[i]
			}
			var sink vm.Sink
			if timed {
				sink = g.Core
			}
			ex := g.Machine.Run(q, sink)
			g.executed += ex
			remaining[i] -= ex
			if ex > 0 {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// newSystem creates an empty system on the parallel schedule or, with
// sequential set, on the reference schedule.
func newSystem(cfg Config, sequential bool) *System {
	sys := New(cfg)
	if sequential {
		sys.reference = runSequential
	}
	return sys
}

// -smp-procs narrows the GOMAXPROCS matrix (comma-separated), so CI
// can shard the SMP equivalence harness per processor count.
var smpProcs = flag.String("smp-procs", "1,2,8", "comma-separated GOMAXPROCS values for TestSMPEquivalence")

// The matrix TestSMPEquivalence covers.
var (
	// equivGuestCounts are the system sizes, equivQuanta the rendezvous
	// quanta: 1, a typical one, and the default, which exceeds every
	// interval the fingerprint runs at these budgets.
	equivGuestCounts = []int{2, 8}
	equivQuanta      = []uint64{1, 128, 10_000}
	// equivBenchmarks is the guest workload pool, cycled to fill a
	// system: a mix of integer and memory-bound FP benchmarks.
	equivBenchmarks = []string{"gzip", "mcf", "swim", "perlbmk", "twolf", "art", "bzip2", "equake"}
)

const (
	// equivScale is the workload scale divisor for quanta > 1, giving
	// per-guest budgets in the 100k–600k range.
	equivScale = 400_000
	// equivTinyScale is the divisor at quantum 1: one goroutine spawn
	// and one barrier per instruction makes large budgets pointless.
	equivTinyScale = 8_000_000
)

// equivGuest is one guest slot of a configuration: the workload and its
// instruction budget.
type equivGuest struct {
	name   string
	scale  int
	budget uint64
}

// fingerprint drives the three execution paths — fast, timed, and
// system-level DynamicSample — each on a fresh system with freshly
// built images (workload generation is deterministic, so every system
// built from the same guest list starts bit-identical), and renders
// every observable into one deterministic byte string: per-guest
// architectural statistics, core snapshots (cycles, retirement
// counters, cache/TLB stats and replacement-state digests, including
// the shared L2), interval IPCs bit-exact via Float64bits, estimates,
// and the rendered report artifact.
func fingerprint(t *testing.T, guests []equivGuest, quantum uint64, sequential bool) []byte {
	t.Helper()
	var b bytes.Buffer

	build := func() *System {
		sys := newSystem(Config{Quantum: quantum}, sequential)
		for i, g := range guests {
			spec, err := workload.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			img, _ := workload.BuildScaled(spec, g.scale)
			sys.AddGuest(fmt.Sprintf("%s#%d", g.name, i), img, g.budget)
		}
		return sys
	}
	render := func(sys *System, ests []Estimate) {
		for _, g := range sys.Guests() {
			fmt.Fprintf(&b, "guest %s executed=%d stats=%+v\n", g.Name, g.Executed(), g.Machine.Stats())
			fmt.Fprintf(&b, "guest %s core=%+v\n", g.Name, g.Core.Snapshot())
		}
		fmt.Fprintf(&b, "sharedL2 stats=%+v digest=%016x\n", sys.SharedL2().Stats(), sys.SharedL2().Digest())
		b.WriteString(sys.Report(ests))
	}

	var maxBudget uint64
	for _, g := range guests {
		if g.budget > maxBudget {
			maxBudget = g.budget
		}
	}

	// Fast path: no events, no cores — the schedule must still land
	// every guest on identical architectural state and budgets.
	b.WriteString("=== path fast\n")
	sys := build()
	for !sys.Done() {
		sys.RunFast(maxBudget/4 + 1)
	}
	render(sys, nil)

	// Timed path: full detail, shared-L2 coupling live in every
	// quantum; interval IPCs pin the cycle trajectories bit-exactly.
	b.WriteString("=== path timed\n")
	sys = build()
	for round := 0; !sys.Done(); round++ {
		ipcs := sys.RunTimed(maxBudget/4 + 1)
		fmt.Fprintf(&b, "interval %d ipcs=[", round)
		for _, ipc := range ipcs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(ipc))
		}
		b.WriteString(" ]\n")
	}
	render(sys, nil)

	// DynamicSample path: mode switching driven by the summed VM
	// statistics, settle/warm/detail interval structure, estimates.
	b.WriteString("=== path dynamic\n")
	sys = build()
	ests, err := sys.DynamicSample(vm.MetricCPU, 300, maxBudget/12+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	render(sys, ests)
	return b.Bytes()
}

// TestSMPEquivalence pins the parallel SMP scheduler's whole contract:
// for every guest count and rendezvous quantum of the matrix, the
// goroutine-per-guest barrier schedule must produce byte-identical
// statistics, core snapshots (including shared-L2 replacement state),
// interval IPCs, Dynamic Sampling estimates, and rendered reports to
// the sequential round-robin reference schedule — at every GOMAXPROCS
// setting of -smp-procs. Run under -race it also proves the rendezvous
// and the shared-L2 replay pipeline are data-race free. Under -short
// the matrix is one configuration at the ambient GOMAXPROCS.
func TestSMPEquivalence(t *testing.T) {
	counts, quanta, procs := equivGuestCounts, equivQuanta, []int(nil)
	if testing.Short() {
		counts, quanta, procs = []int{2}, []uint64{128}, []int{runtime.GOMAXPROCS(0)}
	} else {
		for _, s := range strings.Split(*smpProcs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				t.Fatalf("bad -smp-procs entry %q", s)
			}
			procs = append(procs, p)
		}
	}
	for _, count := range counts {
		for _, quantum := range quanta {
			scale := equivScale
			if quantum == 1 {
				scale = equivTinyScale
			}
			guests := make([]equivGuest, count)
			for i := range guests {
				name := equivBenchmarks[i%len(equivBenchmarks)]
				spec, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				guests[i] = equivGuest{name: name, scale: scale, budget: spec.ScaledInstr(scale)}
			}

			golden := fingerprint(t, guests, quantum, true)
			for _, p := range procs {
				prev := runtime.GOMAXPROCS(p)
				got := fingerprint(t, guests, quantum, false)
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, golden) {
					t.Fatalf("parallel schedule diverged from sequential (guests=%d quantum=%d GOMAXPROCS=%d)\n%s",
						count, quantum, p, check.DiffSummary(golden, got))
				}
				t.Logf("guests=%d quantum=%d procs=%d ok (%d bytes)", count, quantum, p, len(got))
			}
		}
	}
}
