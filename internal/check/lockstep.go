package check

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// lane is one machine of a lockstep run and where its events go.
type lane struct {
	// label names the lane in a Divergence's field ("" in the two-lane
	// checks, whose Check name already says which two runs disagreed).
	label string
	m     *vm.Machine
	sink  vm.Sink // nil runs the lane in fast mode
	// count is what sink has delivered so far; nil when the lane counts
	// nothing.
	count *vm.CountingSink
}

// load returns a fresh machine with prog loaded.
func load(prog *Program, cfg vm.Config) *vm.Machine {
	m := vm.New(cfg)
	m.Load(prog.Image)
	return m
}

// counting sends the lane's events into a vm.CountingSink.
func (l *lane) counting() *lane {
	l.count = &vm.CountingSink{}
	l.sink = l.count
	return l
}

// lockstep is the one chunked loop behind Lockstep, ReplayDeterminism
// and BatchInvariance. It runs every lane o.Chunk instructions at a
// time, the first lane being the reference, and at each sync point
// requires of every other lane the same instruction count, the same
// complete machine state (capture().diff) and — where both lanes count
// their events — the same delivered counts; then invariant, when
// non-nil, checks what the calling leg alone knows. The first
// disagreement is returned as a Divergence under the name check with a
// window around the reference's PC; a reference that halts ends the run
// cleanly, one that stalls or passes o.MaxInstr ends it with an error.
// It also returns the instructions the reference executed.
func lockstep(check string, prog *Program, o Options, lanes []*lane, invariant func() (field, a, b string, ok bool)) (*Divergence, uint64, error) {
	ref := lanes[0]
	var total uint64
	for step := 0; ; step++ {
		na := ref.m.Run(o.Chunk, ref.sink)
		total += na
		report := func(field string, a, b interface{}) (*Divergence, uint64, error) {
			return diverged(check, prog.Seed, ref.m, step, total, field, fmt.Sprint(a), fmt.Sprint(b)), total, nil
		}
		sa := capture(ref.m, o.CompareHostStats)
		for _, l := range lanes[1:] {
			vs := ""
			if l.label != "" {
				vs = " (" + ref.label + " vs " + l.label + ")"
			}
			if nb := l.m.Run(o.Chunk, l.sink); na != nb {
				return report("instructions executed in chunk"+vs, na, nb)
			}
			if field, av, bv, ok := sa.diff(capture(l.m, o.CompareHostStats)); !ok {
				return report(field+vs, av, bv)
			}
			if ref.count == nil || l.count == nil {
				continue
			}
			if ref.count.Total != l.count.Total {
				return report("events delivered"+vs, ref.count.Total, l.count.Total)
			}
			for cls := range ref.count.ByClass {
				if ref.count.ByClass[cls] != l.count.ByClass[cls] {
					return report(fmt.Sprintf("class %d events%s", cls, vs), ref.count.ByClass[cls], l.count.ByClass[cls])
				}
			}
		}
		if invariant != nil {
			if field, av, bv, ok := invariant(); !ok {
				return report(field, av, bv)
			}
		}
		if done, err := chunkEnd(check, ref.m, na, total, o.MaxInstr, prog.Seed); done || err != nil {
			return nil, total, err
		}
		if o.Hook != nil {
			o.Hook(step, ref.m, lanes[1].m)
		}
	}
}

// Lockstep runs prog through two machines — fast mode (nil Sink) and
// event-generating mode (counting Sink) — in chunks of o.Chunk
// instructions, comparing the complete machine state at every sync
// point. It also cross-checks the event stream against the VM's
// internal statistics: per-instruction events are the ground truth the
// timing path consumes, so their class counts must reconcile with the
// counters Dynamic Sampling monitors.
//
// It returns the first divergence (nil if none) and the number of
// instructions the program executed.
func Lockstep(prog *Program, o Options) (*Divergence, uint64, error) {
	o.setDefaults()
	fast := &lane{m: load(prog, o.VM)}
	event := (&lane{m: load(prog, o.VM)}).counting()
	// Event stream vs internal statistics ("stats agreement").
	return lockstep("lockstep", prog, o, []*lane{fast, event}, func() (field, a, b string, ok bool) {
		st, sink := event.m.Stats(), event.count
		for _, inv := range []struct {
			name   string
			events uint64
			stat   uint64
		}{
			{"events delivered", sink.Total, st.Instructions},
			{"branch events", sink.ByClass[isa.ClassBranch], st.Branches},
			{"load events", sink.ByClass[isa.ClassLoad], st.MemReads},
			{"store events", sink.ByClass[isa.ClassStore], st.MemWrites},
			{"sys events", sink.ByClass[isa.ClassSys], st.Syscalls},
		} {
			if inv.events != inv.stat {
				return "event stream vs stats: " + inv.name, fmt.Sprint(inv.events), fmt.Sprint(inv.stat), false
			}
		}
		return "", "", "", true
	})
}
