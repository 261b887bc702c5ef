package sampling

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// SMARTS implements the systematic sampling of Wunderlich et al. (ISCA
// 2003) in the configuration the paper uses: periodic sampling units of
// detailed simulation, each preceded by a short detailed warm-up, with
// *continuous functional warming* (caches and branch predictor updated
// for every instruction) between units. Functional warming is what keeps
// SMARTS accurate with tiny sampling units — and what caps its speed in
// a VM environment, because the VM must generate events for every
// instruction (the paper measures only ~7.4x over full timing).
//
// The paper's configuration is 97 K functional warming, 2 K detailed
// warming, 1 K detailed simulation per ~100 K period. At workload scale
// the 97:2:1 proportions are preserved.
type SMARTS struct {
	// UnitInstr is the detailed sampling-unit length (paper: 1000).
	UnitInstr uint64
	// DetailWarmUnits is the detailed warm-up length as a multiple of
	// UnitInstr (paper: 2).
	DetailWarmUnits uint64
	// PeriodInstr is the sampling period (paper: ~100 K = 100 units).
	PeriodInstr uint64
}

// DefaultSMARTS derives the paper's configuration for a total budget:
// the period is chosen to give ~2000 sampling units (the paper's SPEC
// runs have vastly more; 2000 keeps the CLT comfortably satisfied), with
// the unit 1% of the period and detailed warming 2%, preserving the
// 97:2:1 structure.
func DefaultSMARTS(totalInstr uint64) SMARTS {
	period := max(totalInstr/2000, 1000)
	unit := max(period/100, 50)
	return SMARTS{UnitInstr: unit, DetailWarmUnits: 2, PeriodInstr: period}
}

// Name implements Policy.
func (SMARTS) Name() string { return "SMARTS" }

// Run implements Policy: the periodic (functional warming, detailed
// warming, timed) unit.
func (p SMARTS) Run(s *core.Session) (Result, error) {
	if p.UnitInstr == 0 || p.PeriodInstr <= p.UnitInstr*(1+p.DetailWarmUnits) {
		return Result{}, fmt.Errorf("sampling: SMARTS: bad configuration %+v", p)
	}
	d := NewDriver(s, p.Name())
	var cpiStream stats.Stream
	warm := p.UnitInstr * p.DetailWarmUnits
	funcWarm := p.PeriodInstr - p.UnitInstr - warm
	funcWarmRun := s.RunFuncWarm // once, not a heap allocation per unit
	d.run(func() (step, bool) { return d.at(funcWarmRun, funcWarm, warm, p.UnitInstr), true }, func(ipc float64, _ uint64) {
		if ipc > 0 {
			cpiStream.Add(1 / ipc)
		}
	})
	res := d.Result()
	// SMARTS's headline property: a statistical confidence bound on the
	// mean unit CPI (Wunderlich et al. report +-p% at 99.7% confidence).
	// A bound needs two timed units; with fewer it is infinite, which
	// JSON cannot carry, so the interval stays nil.
	if cpiStream.N() >= 2 {
		hw, m := cpiStream.CI(0.997), cpiStream.Mean()
		res.CPIInterval = &stats.Interval{Point: m, Lo: m - hw, Hi: m + hw, Confidence: 0.997}
	}
	return res, nil
}
