package smp

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// refDynamicSample is system-level Dynamic Sampling written out as one
// loop: every guest runs interval-sized chunks, the guests' summed
// monitored statistic feeds one PhaseDetector, and a sampling decision
// orders one settle, one detailed-warm and one timed interval on every
// core. Each guest's estimator takes its settle and warm shares as two
// Functional calls, as sampling's driver feeds them, and counts a sample
// only for a timed interval the guest executed part of. A step in which
// no guest executes anything ends the run.
func refDynamicSample(s *System, metric vm.Metric, sens float64, interval uint64, maxFunc int) []Estimate {
	ests := make([]sampling.Estimator, len(s.guests))
	samples := make([]int, len(s.guests))
	det := sampling.PhaseDetector{SensitivityPct: sens, MaxFunc: maxFunc}
	timed := false
	var prevSum uint64
	for !s.Done() {
		var executed []uint64
		before := make([]uint64, len(s.guests))
		for i, g := range s.guests {
			before[i] = g.executed
		}
		if timed {
			s.run(interval, false) // settle
			settled := make([]uint64, len(s.guests))
			for i, g := range s.guests {
				settled[i] = g.executed
			}
			s.run(interval, true) // detailed warm (not recorded)
			mid := make([]uint64, len(s.guests))
			marks := make([]timing.Marker, len(s.guests))
			for i, g := range s.guests {
				mid[i] = g.executed
				marks[i] = g.Core.Marker()
			}
			s.run(interval, true)
			executed = make([]uint64, len(s.guests))
			for i, g := range s.guests {
				ests[i].Functional(settled[i] - before[i])
				ests[i].Functional(mid[i] - settled[i])
				if ests[i].Sample(timing.IPC(marks[i], g.Core.Marker()), g.executed-mid[i]) {
					samples[i]++
				}
				executed[i] = g.executed - before[i]
			}
		} else {
			s.run(interval, false)
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
		var sum uint64
		for _, g := range s.guests {
			sum += g.Machine.Stats().Value(metric)
		}
		decision, _ := det.Observe(sum - prevSum)
		prevSum = sum
		timed = decision.Sample()
	}
	out := make([]Estimate, len(s.guests))
	for i, g := range s.guests {
		out[i] = Estimate{Name: g.Name, IPC: ests[i].IPC(), Samples: samples[i]}
	}
	return out
}

// dsGuest is one guest of a dsCase: a benchmark built at a scale.
type dsGuest struct {
	bench string
	scale int
}

// dsCase is one system-level Dynamic Sampling configuration. Every
// guest gets the first guest's budget, so a guest built at a larger
// scale than the first halts on its own (as in TestDynamicReportGolden).
type dsCase struct {
	guests   []dsGuest
	quantum  uint64
	metric   vm.Metric
	sens     float64
	interval uint64
	maxFunc  int
}

func (c dsCase) String() string {
	return fmt.Sprintf("%v q=%d %s S=%v L=%d max_func=%d", c.guests, c.quantum, c.metric, c.sens, c.interval, c.maxFunc)
}

// build returns a fresh system of c's guests reporting into reg.
func (c dsCase) build(t testing.TB, reg *obs.Registry) *System {
	t.Helper()
	var budget uint64
	sys := New(Config{Quantum: c.quantum, Obs: reg})
	for i, g := range c.guests {
		spec, err := workload.ByName(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			budget = spec.ScaledInstr(g.scale)
		}
		img, _ := workload.BuildScaled(spec, g.scale)
		sys.AddGuest(fmt.Sprintf("%s#%d", g.bench, i), img, budget)
	}
	return sys
}

// followReference runs c under DynamicSample and under refDynamicSample
// and requires the same report: each guest's executed count, core
// marker and estimate (the IPC by its bits), and the shared L2's digest.
func followReference(t testing.TB, c dsCase) {
	t.Helper()
	want := c.build(t, nil)
	wantEsts := refDynamicSample(want, c.metric, c.sens, c.interval, c.maxFunc)
	got := c.build(t, nil)
	gotEsts, err := got.DynamicSample(c.metric, c.sens, c.interval, c.maxFunc)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Report(gotEsts), want.Report(wantEsts); g != w {
		t.Fatalf("%v: DynamicSample\n%s\nreference\n%s", c, g, w)
	}
}

var (
	// The golden's two systems (TestDynamicReportGolden).
	goldenMid   = []dsGuest{{"gzip", 50_000}, {"mcf", 150_000}}
	goldenThree = []dsGuest{{"gzip", 50_000}, {"mcf", 50_000}, {"swim", 50_000}}
	// perlbmk alone: phases of every kind, so each metric triggers.
	perlbmkAlone = []dsGuest{{"perlbmk", 50_000}}
)

// TestDynamicSampleFollowsReference requires DynamicSample to match
// refDynamicSample bit for bit over the golden's two systems and a grid
// of guest mixes, quanta, metrics, max_func values and intervals.
func TestDynamicSampleFollowsReference(t *testing.T) {
	t.Parallel()
	cases := []dsCase{
		{goldenMid, 10_000, vm.MetricCPU, 300, 4000, 3},
		{goldenThree, 10_000, vm.MetricEXC, 100, 4000, 0},
	}
	mixes := [][]dsGuest{perlbmkAlone, goldenMid, {{"twolf", 200_000}, {"art", 200_000}}}
	metrics := []vm.Metric{vm.MetricCPU, vm.MetricEXC, vm.MetricIO}
	quanta := []uint64{128, 10_000}
	intervals := []uint64{997, 4000}
	k := 0
	for _, mix := range mixes {
		for _, m := range metrics {
			for _, maxFunc := range []int{0, 1, 3} {
				cases = append(cases, dsCase{mix, quanta[k%2], m, 300, intervals[k/2%2], maxFunc})
				k++
			}
		}
	}
	for _, c := range cases {
		followReference(t, c)
	}
}

// FuzzDynamicSampleMatchesReference runs a fuzzed system-level Dynamic
// Sampling configuration under DynamicSample and under refDynamicSample
// and requires the same bits. a, b and c pick up to three guests from
// fuzzGuests (b and c: 0 is none); the quantum and interval have floors
// that keep one run short. The seeds are the golden's two systems, and
// three runs in which a guest's estimate differs in the last bits when
// its settle and warm shares reach the estimator as one sum.
func FuzzDynamicSampleMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), uint16(10_000), uint8(vm.MetricCPU), uint16(300), uint16(4000), uint8(3))
	f.Add(uint8(0), uint8(3), uint8(4), uint16(10_000), uint8(vm.MetricEXC), uint16(100), uint16(4000), uint8(0))
	f.Add(uint8(4), uint8(0), uint8(0), uint16(128), uint8(vm.MetricEXC), uint16(300), uint16(997), uint8(3))
	f.Add(uint8(4), uint8(0), uint8(0), uint16(10_000), uint8(vm.MetricEXC), uint16(300), uint16(997), uint8(3))
	f.Add(uint8(5), uint8(7), uint8(0), uint16(128), uint8(vm.MetricIO), uint16(300), uint16(10_000), uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c uint8, quantum uint16, metric uint8, sens, interval uint16, maxFunc uint8) {
		n := uint8(len(fuzzGuests))
		guests := []dsGuest{fuzzGuests[a%n]}
		for _, x := range []uint8{b, c} {
			if x%(n+1) > 0 {
				guests = append(guests, fuzzGuests[x%(n+1)-1])
			}
		}
		followReference(t, dsCase{guests, max(uint64(quantum), 32), vm.Metric(metric % 3),
			float64(sens % 1000), max(uint64(interval), 500), int(maxFunc % 8)})
	})
}

// fuzzGuests is FuzzDynamicSampleMatchesReference's guest pool.
var fuzzGuests = []dsGuest{{"gzip", 50_000}, {"mcf", 150_000}, {"mcf", 50_000}, {"swim", 50_000},
	{"perlbmk", 100_000}, {"twolf", 200_000}, {"art", 200_000}}

// TestDynamicSampleAddsNoAllocationPerInterval requires DynamicSample to
// allocate no more than refDynamicSample plus a constant per run: the
// driver, its closures and obs handles. An allocation per interval
// costs hundreds on this run and fails it.
func TestDynamicSampleAddsNoAllocationPerInterval(t *testing.T) {
	c := dsCase{goldenMid, 10_000, vm.MetricCPU, 300, 4000, 3}
	allocs := func(run func(*System)) float64 {
		return testing.AllocsPerRun(2, func() { run(c.build(t, nil)) })
	}
	want := allocs(func(s *System) { refDynamicSample(s, c.metric, c.sens, c.interval, c.maxFunc) })
	got := allocs(func(s *System) {
		if _, err := s.DynamicSample(c.metric, c.sens, c.interval, c.maxFunc); err != nil {
			t.Fatal(err)
		}
	})
	if got > want+16 {
		t.Errorf("DynamicSample: %v allocations, reference %v", got, want)
	}
}

// TestDynamicSampleWritesSamplingSeries requires an SMP run to write the
// sampling driver's series like every other policy: its
// sampling_samples_total is the largest sample count over the guests,
// while smp_guest_samples_total keeps each guest's own.
func TestDynamicSampleWritesSamplingSeries(t *testing.T) {
	t.Parallel()
	c := dsCase{goldenMid, 10_000, vm.MetricCPU, 300, 4000, 3}
	reg := obs.NewRegistry()
	sys := c.build(t, reg)
	ests, err := sys.DynamicSample(c.metric, c.sens, c.interval, c.maxFunc)
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, e := range ests {
		most = max(most, e.Samples)
		if n := reg.Counter("smp_guest_samples_total", "guest", e.Name).Value(); n != uint64(e.Samples) {
			t.Errorf("%s: smp_guest_samples_total %d, Samples %d", e.Name, n, e.Samples)
		}
	}
	policy := sampling.NewDynamic(c.metric, c.sens, 1, c.maxFunc).Name()
	if n := reg.Counter("sampling_samples_total", "policy", policy).Value(); n != uint64(most) || n == 0 {
		t.Errorf("sampling_samples_total{policy=%q} %d, largest guest Samples %d", policy, n, most)
	}
}

// TestRunTimedReturnsCombinedIPC requires a timed interval's IPC to be
// the guests' summed instructions over their summed cycles.
func TestRunTimedReturnsCombinedIPC(t *testing.T) {
	t.Parallel()
	sys := dsCase{guests: goldenThree}.build(t, nil)
	for i := 0; i < 4; i++ {
		var di, dc uint64
		for _, g := range sys.guests {
			di -= g.Core.Marker().Instrs
			dc -= g.Core.Marker().Cycles
		}
		ipc, _ := sys.RunTimed(20_000)
		for _, g := range sys.guests {
			di += g.Core.Marker().Instrs
			dc += g.Core.Marker().Cycles
		}
		if want := float64(di) / float64(dc); ipc != want || !(ipc > 0) {
			t.Fatalf("interval %d: RunTimed IPC %v, summed instructions over summed cycles %v", i, ipc, want)
		}
	}
}
