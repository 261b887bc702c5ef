package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hostcost"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The traced side of a run: per-layer numbers read from outside the
// program — the pass's obs registry, store and coordinator counters,
// cell spans — plus one pass over harness-owned sessions for the
// modelled machine's own statistics.

// cellTimes reports the distribution of cell lengths in a traced pass.
func cellTimes(res *passResult, out map[string]metric) {
	var ds []float64
	for _, c := range res.cells {
		ds = append(ds, c.WallS)
	}
	out["experiments.cell.p50_s"] = metric{median(ds), "s"}
	out["experiments.cell.p90_s"] = metric{quantile(ds, 0.9), "s"}
}

// tracedMetrics assembles the traced side of a run: the median over the
// traced passes of every per-pass layer number (exact counts repeat, so
// their median is the count), the modelled machine's own statistics from
// a pass over harness-owned sessions, and the speed-up comparison.
func tracedMetrics(ctx context.Context, rep *runReport, w bench, layers []map[string]metric,
	lastTraced *passResult, truth []cellResult, wallPlain, wallTraced []float64) error {
	for k, first := range layers[0] {
		vals := make([]float64, 0, len(layers))
		for _, l := range layers {
			vals = append(vals, l[k].Value)
		}
		rep.Metrics[k] = metric{median(vals), first.Unit}
	}

	benches, policies, scale := w.matrix()
	direct, sim, err := directPass(ctx, benches, policies, scale)
	if err != nil {
		return fmt.Errorf("%s: simulated-statistics pass: %w", rep.Workload, err)
	}
	sim.metrics(rep.Metrics)

	// Full-timing cells to compare against: the ground-truth pass when
	// verification ran one, else the workload's own; on detail_full,
	// where every cell is full timing, the harness-owned sessions.
	full, sampled := truth, lastTraced.cells
	if full == nil {
		if full, sampled = splitFull(lastTraced.cells); len(sampled) == 0 {
			full, sampled = direct, lastTraced.cells
		}
	}
	modelled, measured := speedups(full, sampled)
	rep.Metrics["hostcost.modelled_speedup_x"] = metric{modelled, "x"}
	rep.Metrics["hostcost.measured_speedup_x"] = metric{measured, "x"}

	// Fast quartiles on both sides, like the end-to-end metrics: a slow
	// stretch of the host hits one side or the other, not the tracing.
	overhead := 0.0
	if p := quantile(wallPlain, 0.25); p > 0 {
		overhead = (quantile(wallTraced, 0.25)/p - 1) * 100
	}
	rep.Metrics["obs.trace_overhead_pct"] = metric{overhead, "%"}
	return nil
}

// simStats are the modelled machine's own counters, summed over cells.
type simStats struct {
	cycles, instrs  uint64
	l1d, l2, dtlb   cache.Stats
	branches, dirMP uint64
}

func (a *simStats) add(s *core.Session) {
	mk := s.Core().Marker()
	a.cycles += mk.Cycles
	a.instrs += mk.Instrs
	_, l1d, l2 := s.Core().CacheStats()
	_, dtlb, _ := s.Core().TLBStats()
	addCacheStats(&a.l1d, l1d)
	addCacheStats(&a.l2, l2)
	addCacheStats(&a.dtlb, dtlb)
	bs := s.Core().Predictor().Stats()
	a.branches += bs.Branches
	a.dirMP += bs.DirMispred
}

func addCacheStats(dst *cache.Stats, src cache.Stats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
}

func (a simStats) metrics(out map[string]metric) {
	ipc := 0.0
	if a.cycles > 0 {
		ipc = float64(a.instrs) / float64(a.cycles)
	}
	mp := 0.0
	if a.branches > 0 {
		mp = float64(a.dirMP) / float64(a.branches)
	}
	out["timing.ipc"] = metric{ipc, "ipc"}
	out["timing.sim_cycles"] = metric{float64(a.cycles), "cycles"}
	out["cache.l1d.miss_rate"] = metric{a.l1d.MissRate(), "ratio"}
	out["cache.l2.miss_rate"] = metric{a.l2.MissRate(), "ratio"}
	out["cache.dtlb.miss_rate"] = metric{a.dtlb.MissRate(), "ratio"}
	out["branch.mispredict_rate"] = metric{mp, "ratio"}
}

// directPass runs benches × policies through sessions the harness owns
// (no Runner, no store), which is the only way to read the timing
// core's simulated counters from outside. One cell at a time, so that
// the cells' wall times compare with the Runner's.
func directPass(ctx context.Context, benches []string, policies []sampling.Policy, scale int) ([]cellResult, simStats, error) {
	var cells []cellResult
	var sim simStats
	for _, b := range benches {
		spec, err := workload.ByName(b)
		if err != nil {
			return nil, sim, err
		}
		seen := make(map[string]bool) // both SimPoint variants are one execution
		for _, p := range policies {
			key := experiments.PolicyKeyOf(p)
			if seen[key] {
				continue
			}
			seen[key] = true
			s := core.NewSession(spec, core.Options{Scale: scale, Context: ctx})
			start := time.Now()
			res, err := p.Run(s)
			if err == nil {
				err = s.Interrupted()
			}
			if err != nil {
				return nil, sim, fmt.Errorf("%s on %s: %w", p.Name(), b, err)
			}
			sim.add(s)
			cells = append(cells, cellResult{Bench: b, Policy: key, Res: res, WallS: time.Since(start).Seconds()})
		}
	}
	return cells, sim, nil
}

// ckptMetrics renders the checkpoint store's counts for one pass.
func ckptMetrics(out map[string]metric, hits, misses, puts, dupPuts, remotePuts uint64) {
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	out["ckpt.hits"] = metric{float64(hits), "count"}
	out["ckpt.misses"] = metric{float64(misses), "count"}
	out["ckpt.puts"] = metric{float64(puts), "count"}
	out["ckpt.dup_puts"] = metric{float64(dupPuts), "count"}
	out["ckpt.remote_puts"] = metric{float64(remotePuts), "count"}
	out["ckpt.hit_ratio"] = metric{ratio, "ratio"}
}

// sweepLayerMetrics renders the sweep layer's traced numbers for one
// pass: the HTTP and lease probes, the coordinator's waste ratios and
// the WAL's size. Nil probes and zero stats give all-zero metrics.
func sweepLayerMetrics(out map[string]metric, probe *httpProbe, leases *leaseProbe, wall time.Duration,
	cs sweep.CoordStats, remote ckpt.Stats, walBytes int64) {
	probe.metrics(out)
	leases.metrics(out, wall)
	dupRecords, dupPuts := 0.0, 0.0
	if cs.Records > 0 {
		dupRecords = float64(cs.DupRecords) / float64(cs.Records)
	}
	if n := remote.Puts + remote.DupPuts; n > 0 {
		dupPuts = float64(remote.DupPuts) / float64(n)
	}
	out["sweep.dup_record_ratio"] = metric{dupRecords, "ratio"}
	out["sweep.ckpt_put.dup_ratio"] = metric{dupPuts, "ratio"}
	out["sweep.reissues"] = metric{float64(cs.Reissues), "count"}
	out["sweep.wal.bytes"] = metric{float64(walBytes), "bytes"}
}

// coreLayerMetrics reads the per-mode accounting the sessions mirrored
// into the pass's registry: time inside a cell is attributed to modes by
// the program's own counters, not by new instrumentation.
func coreLayerMetrics(tr *passTrace, res *passResult, out map[string]metric) {
	reg := tr.reg
	var tcInval, flushes, allInstr, detailInstr uint64
	for m := hostcost.Mode(0); int(m) < hostcost.NumModes; m++ {
		name := m.String()
		instr := reg.Counter("vm_instructions_total", "mode", name).Value()
		out["core.mode."+name+".busy_s"] = metric{float64(reg.Counter("vm_wall_ns_total", "mode", name).Value()) / 1e9, "s"}
		out["core.mode."+name+".instr"] = metric{float64(instr), "count"}
		tcInval += reg.Counter("vm_tc_invalidations_total", "mode", name).Value()
		flushes += reg.Counter("vm_batch_flushes_total", "mode", name).Value()
		allInstr += instr
		if m == hostcost.DetailWarm || m == hostcost.Timing {
			detailInstr += instr
		}
	}
	restores := reg.Counter("ckpt_restores_total").Value()
	allInstr += reg.Counter("ckpt_restored_instructions_total").Value()
	meanUs := 0.0
	if h := reg.Histogram("ckpt_restore_seconds", obs.TimeBuckets); h.Count() > 0 {
		meanUs = h.Sum() / float64(h.Count()) * 1e6
	}
	// Counted from the registry, not the transition trace: sweep_dist's
	// workers take a registry but no trace.
	transitions := 0.0
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "core_mode_transitions_total") {
			transitions += v
		}
	}
	out["core.transitions"] = metric{transitions, "count"}
	out["core.restores"] = metric{float64(restores), "count"}
	out["core.restore.mean_us"] = metric{meanUs, "us"}
	out["vm.tc_invalidations"] = metric{float64(tcInval), "count"}
	out["vm.batch_flushes"] = metric{float64(flushes), "count"}

	samples := 0
	for _, c := range res.cells {
		samples += c.Res.Samples
	}
	frac := 0.0
	if allInstr > 0 {
		frac = float64(detailInstr) / float64(allInstr)
	}
	out["sampling.samples"] = metric{float64(samples), "count"}
	out["sampling.detail_fraction"] = metric{frac, "ratio"}

	out["experiments.cells"] = metric{float64(reg.Counter("experiments_cells_started_total").Value()), "count"}
}

// splitFull separates a pass's full-timing cells from its sampled ones.
func splitFull(cells []cellResult) (full, sampled []cellResult) {
	for _, c := range cells {
		if c.Policy == "Full timing" {
			full = append(full, c)
		} else {
			sampled = append(sampled, c)
		}
	}
	return full, sampled
}

// speedups puts the measured wall-clock speed-up of the sampled cells
// beside the one internal/hostcost models: full-timing cost over the
// mean per-policy cost, on the same benchmarks. Reported, never gated.
func speedups(full, sampled []cellResult) (modelled, measured float64) {
	var fullUnits, fullWall, polUnits, polWall float64
	for _, c := range full {
		if !c.Failed {
			fullUnits += c.Res.Cost.Units
			fullWall += c.WallS
		}
	}
	pols := make(map[string]bool)
	for _, c := range sampled {
		if !c.Failed {
			pols[c.Policy] = true
			polUnits += c.Res.Cost.Units
			polWall += c.WallS
		}
	}
	if n := float64(len(pols)); n > 0 && polUnits > 0 && polWall > 0 {
		return fullUnits / (polUnits / n), fullWall / (polWall / n)
	}
	return 0, 0
}
