package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/vm"
)

// BatchSizes is the standard set of event-batch capacities the batch-
// invariance checks sweep: a degenerate one-event batch, a small prime
// that never divides chunk or block lengths evenly, a typical capacity,
// and a batch far larger than any chunk so every flush comes from a
// boundary other than batch-full.
var BatchSizes = []int{1, 3, 64, 4096}

// BatchInvariance proves the event batch capacity is invisible: it runs
// prog on a reference machine that delivers one event per flush
// (EventBatch 1) into a sink that counts event by event, then re-runs it
// once per entry in BatchSizes into vm.CountingSink, in the same o.Chunk
// partitioning, comparing complete machine state and delivered event
// counts at every sync point. Any dependence of architectural state,
// vm.Stats, or the event stream on the batch capacity — a missed flush
// before a syscall, an event materialised with post-batch state, a
// dropped tail at Run return — is reported as a Divergence.
func BatchInvariance(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()

	type runner struct {
		label string
		m     *vm.Machine
		count *vm.CountingSink
		sink  vm.Sink
	}
	newRunner := func(label string, batch int) *runner {
		cfg := o.VM
		cfg.EventBatch = batch
		r := &runner{label: label, m: vm.New(cfg), count: &vm.CountingSink{}}
		r.m.Load(prog.Image)
		r.sink = r.count
		return r
	}

	// The reference leg shares neither the batching nor the counting
	// code with the legs under test: every flush carries one event, and
	// the count is the obvious one.
	ref := newRunner("per-event", 1)
	ref.sink = vm.BatchFunc(func(evs []vm.Event) {
		for i := range evs {
			ref.count.Total++
			ref.count.ByClass[evs[i].Class]++
		}
	})
	batched := make([]*runner, len(BatchSizes))
	for i, bs := range BatchSizes {
		batched[i] = newRunner(fmt.Sprintf("batch=%d", bs), bs)
	}

	var total uint64
	for step := 0; ; step++ {
		na := ref.m.Run(o.Chunk, ref.sink)
		total += na
		for _, r := range batched {
			diverged := func(field string, a, b interface{}) (*Divergence, error) {
				return &Divergence{
					Check: "batch-invariance", Seed: prog.Seed, Step: step, Instr: total,
					Field: field + " (" + ref.label + " vs " + r.label + ")",
					A:     fmt.Sprint(a), B: fmt.Sprint(b),
					Window: DisasmWindow(ref.m, ref.m.PC(), 6, 6),
				}, nil
			}
			if nb := r.m.Run(o.Chunk, r.sink); na != nb {
				return diverged("instructions executed in chunk", na, nb)
			}
			sa := capture(ref.m, o.CompareHostStats)
			sb := capture(r.m, o.CompareHostStats)
			if field, av, bv, ok := sa.diff(sb); !ok {
				return diverged(field, av, bv)
			}
			if ref.count.Total != r.count.Total {
				return diverged("events delivered", ref.count.Total, r.count.Total)
			}
			for cls := range ref.count.ByClass {
				if ref.count.ByClass[cls] != r.count.ByClass[cls] {
					return diverged(fmt.Sprintf("class %d events", cls), ref.count.ByClass[cls], r.count.ByClass[cls])
				}
			}
		}
		if ref.m.Halted() {
			return nil, nil
		}
		if na == 0 {
			return nil, fmt.Errorf("check: batch-invariance stalled at instr %d without halting (seed=%d)", total, prog.Seed)
		}
		if total > o.MaxInstr {
			return nil, fmt.Errorf("check: program did not halt within %d instructions (seed=%d)", o.MaxInstr, prog.Seed)
		}
	}
}

// PolicyBatchInvariance replays a full sampling session per policy once
// with the default event-batch capacity and once per entry in
// BatchSizes, and requires every Result to be bit-identical: the batch
// capacity is host-side plumbing and must never reach an estimate,
// schedule, detection, or modelled cost. Policies defaults to
// DefaultPolicies for the benchmark's budget.
func PolicyBatchInvariance(bench string, opts core.Options, policies []sampling.Policy) error {
	return comparePolicies("batch invariance", bench, opts, policies, func() []variant {
		var vs []variant
		for _, bs := range BatchSizes {
			o := opts
			o.VM.EventBatch = bs
			vs = append(vs, variant{label: fmt.Sprintf("batch=%d", bs), opts: o})
		}
		return vs
	})
}
