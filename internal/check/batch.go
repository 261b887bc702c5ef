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

// batchLane is a counting lane on a machine with the given event-batch
// capacity.
func batchLane(label string, prog *Program, o Options, batch int) *lane {
	cfg := o.VM
	cfg.EventBatch = batch
	return (&lane{label: label, m: load(prog, cfg)}).counting()
}

// perEventLane is the reference lane of BatchInvariance. It shares
// neither the batching nor the counting code with the lanes under test:
// every flush carries one event, and the count is the obvious one.
func perEventLane(prog *Program, o Options) *lane {
	ref := batchLane("per-event", prog, o, 1)
	ref.sink = vm.BatchFunc(func(evs []vm.Event) {
		for i := range evs {
			ref.count.Total++
			ref.count.ByClass[evs[i].Class]++
		}
	})
	return ref
}

// BatchInvariance proves the event batch capacity is invisible: it runs
// prog on a reference machine that delivers one event per flush
// (EventBatch 1) into a sink that counts event by event, then re-runs it
// once per entry in BatchSizes into vm.CountingSink, in the same o.Chunk
// partitioning, comparing complete machine state and delivered event
// counts at every sync point. Any dependence of architectural state,
// vm.Stats, or the event stream on the batch capacity — an event
// materialised with post-batch state, a dropped tail at Run return — is
// reported as a Divergence, and so is a flush anywhere but a full batch
// and Run's return: each lane must make ⌈events/capacity⌉ per chunk.
func BatchInvariance(prog *Program, o Options) (*Divergence, error) {
	o.setDefaults()
	lanes, caps := []*lane{perEventLane(prog, o)}, append([]int{1}, BatchSizes...)
	for _, bs := range BatchSizes {
		lanes = append(lanes, batchLane(fmt.Sprintf("batch=%d", bs), prog, o, bs))
	}
	// Each lane's delivered events and flushes at the last sync point.
	events, flushes := make([]uint64, len(lanes)), make([]uint64, len(lanes))
	div, _, err := lockstep("batch-invariance", prog, o, lanes, func() (field, a, b string, ok bool) {
		for i, l := range lanes {
			ran, made := l.count.Total-events[i], l.m.BatchFlushes()-flushes[i]
			events[i], flushes[i] = l.count.Total, l.m.BatchFlushes()
			c := uint64(caps[i])
			if want := (ran + c - 1) / c; made != want {
				return "batch flushes in chunk vs ⌈events/capacity⌉ (" + l.label + ")", fmt.Sprint(made), fmt.Sprint(want), false
			}
		}
		return "", "", "", true
	})
	return div, err
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
