package check

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simpoint"
	"repro/internal/timing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// perEvent adapts a per-event function to vm.Sink: the per-event
// formulation of delivery, which exists only on the test side.
func perEvent(f func(*vm.Event)) vm.Sink {
	return vm.BatchFunc(func(evs []vm.Event) {
		for i := range evs {
			f(&evs[i])
		}
	})
}

// TestSinksPerEventOracle feeds every production sink one recorded
// stream twice — event by event, each in a one-element slice that is
// overwritten before the next (so a sink that keeps the slice instead
// of copying is caught), and in seeded random batch splits drawn from
// the sizes the batch-invariance sweep uses — and requires the sinks to
// end in equal state.
func TestSinksPerEventOracle(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := workload.BuildScaled(spec, 50_000)
	m := vm.New(vm.Config{})
	m.Load(img)
	var stream []vm.Event
	m.Run(60_000, vm.BatchFunc(func(evs []vm.Event) { stream = append(stream, evs...) }))
	if len(stream) != 60_000 {
		t.Fatalf("recorded %d events", len(stream))
	}

	// Each constructor returns a fresh sink and a function reading its
	// final state.
	sinks := map[string]func() (vm.Sink, func() interface{}){
		"vm.CountingSink": func() (vm.Sink, func() interface{}) {
			c := &vm.CountingSink{}
			return c, func() interface{} { return *c }
		},
		"simpoint.Profiler": func() (vm.Sink, func() interface{}) {
			p := simpoint.NewProfiler(0, 7)
			return p, func() interface{} { p.EndInterval(); return p.Vectors() }
		},
		"timing.Core": func() (vm.Sink, func() interface{}) {
			c := timing.NewCore(timing.DefaultConfig())
			return c, func() interface{} { return c.Snapshot() }
		},
		"timing.WarmSink": func() (vm.Sink, func() interface{}) {
			c := timing.NewCore(timing.DefaultConfig())
			return c.WarmSink(), func() interface{} { return c.Snapshot() }
		},
	}

	for name, mk := range sinks {
		ref, refState := mk()
		one := make([]vm.Event, 1)
		perEvent(func(ev *vm.Event) {
			one[0] = *ev
			ref.OnEvents(one)
		}).OnEvents(stream)
		one[0] = vm.Event{}
		want := refState()

		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, gotState := mk()
			for at := 0; at < len(stream); {
				n := []int{1, 3, 64, 4096}[rng.Intn(4)]
				if n > len(stream)-at {
					n = len(stream) - at
				}
				// A scratch copy, cleared after delivery like the VM's
				// reused batch buffer.
				batch := append([]vm.Event(nil), stream[at:at+n]...)
				got.OnEvents(batch)
				for i := range batch {
					batch[i] = vm.Event{}
				}
				at += n
			}
			if state := gotState(); !reflect.DeepEqual(state, want) {
				t.Errorf("%s: batch splits (seed %d) ended in a different state than per-event delivery", name, seed)
			}
		}
	}
}
