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
// capacity, whose invariant is that it flushed exactly
// ⌈events/capacity⌉ batches in every chunk.
func batchLane(label string, prog *Program, o Options, batch int) *lane {
	cfg := o.VM
	cfg.EventBatch = batch
	l := (&lane{check: "batch-invariance", label: label, m: load(prog, cfg)}).counting()
	// Delivered events and flushes at the last sync point.
	var events, flushes uint64
	l.invariant = func() (field, a, b string, ok bool) {
		ran, made := l.count.Total-events, l.m.BatchFlushes()-flushes
		events, flushes = l.count.Total, l.m.BatchFlushes()
		c := uint64(batch)
		if want := (ran + c - 1) / c; made != want {
			return "batch flushes in chunk vs ⌈events/capacity⌉ (" + label + ")", fmt.Sprint(made), fmt.Sprint(want), false
		}
		return "", "", "", true
	}
	return l
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
	lanes := []*lane{perEventLane(prog, o)}
	for _, bs := range BatchSizes {
		lanes = append(lanes, batchLane(fmt.Sprintf("batch=%d", bs), prog, o, bs))
	}
	div, _, err := lockstep(prog, o, lanes)
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
