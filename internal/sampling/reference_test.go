package sampling

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The reference schedules: every policy's loop written out in full, the
// way each was spelled before the policies shared one driver, kept on
// the test side as the oracle the driver is compared against (the
// refDetector / refKMeans / deepSnapshot pattern — no second production
// path). Each writes the same obs series as its policy into the
// session's registry, so TestPoliciesFollowReference compares those too.
// refDynamic lives with refDetector in detector_test.go.

// refPolicyObs is the per-policy sample counter and interval-IPC
// distribution every reference writes.
type refPolicyObs struct {
	samples     *obs.Counter
	intervalIPC *obs.Histogram
}

func newRefPolicyObs(s *core.Session, policy string) refPolicyObs {
	reg := s.Obs()
	return refPolicyObs{
		samples:     reg.Counter("sampling_samples_total", "policy", policy),
		intervalIPC: reg.Histogram("sampling_interval_ipc", obs.LinearBuckets(0.25, 0.25, 16), "policy", policy),
	}
}

func (po refPolicyObs) sample(ipc float64) {
	po.samples.Inc()
	po.intervalIPC.Observe(ipc)
}

// refRun runs p's reference schedule.
func refRun(p Policy, s *core.Session) (Result, error) {
	switch p := p.(type) {
	case FullTiming:
		return refFullTiming(p, s), nil
	case SMARTS:
		return refSMARTS(p, s)
	case Dynamic:
		return refDynamic(p, s), nil
	case Stratified:
		return refStratified(p, s)
	case RankedSet:
		return refRankedSet(p, s)
	}
	return Result{}, fmt.Errorf("no reference schedule for %T", p)
}

func refFullTiming(p FullTiming, s *core.Session) Result {
	var est Estimator
	res := Result{Policy: p.Name(), Bench: s.Spec().Name}
	po := newRefPolicyObs(s, p.Name())
	interval := s.IntervalLen()
	prev := s.Machine().Stats()
	var idx uint64
	for !s.Done() {
		ipc, ex := s.RunTimed(interval)
		if ex == 0 {
			break
		}
		est.Sample(ipc, ex)
		res.Samples++
		po.sample(ipc)
		if int(idx) < p.TraceIntervals {
			now := s.Machine().Stats()
			delta := now.Sub(prev)
			prev = now
			res.Trace = append(res.Trace, IntervalTrace{
				Index:           idx,
				IPC:             ipc,
				TCInvalidations: delta.TCInvalidations,
				Exceptions:      delta.Exceptions,
				IOOps:           delta.IOOps,
			})
		}
		idx++
	}
	res.EstIPC = est.IPC()
	res.Instructions = s.Executed()
	res.Cost = s.Meter().Report(s.Scale())
	return res
}

func refSMARTS(p SMARTS, s *core.Session) (Result, error) {
	if p.UnitInstr == 0 || p.PeriodInstr <= p.UnitInstr*(1+p.DetailWarmUnits) {
		return Result{}, fmt.Errorf("bad configuration %+v", p)
	}
	var est Estimator
	var cpiStream stats.Stream
	res := Result{Policy: p.Name(), Bench: s.Spec().Name}
	po := newRefPolicyObs(s, p.Name())
	warm := p.UnitInstr * p.DetailWarmUnits
	funcWarm := p.PeriodInstr - p.UnitInstr - warm
	for !s.Done() {
		fw := s.RunFuncWarm(funcWarm)
		est.Functional(fw)
		if fw < funcWarm {
			break
		}
		est.Functional(s.RunDetailWarm(warm))
		ipc, ex := s.RunTimed(p.UnitInstr)
		if ex == 0 {
			break
		}
		est.Sample(ipc, ex)
		if ipc > 0 {
			cpiStream.Add(1 / ipc)
		}
		res.Samples++
		po.sample(ipc)
	}
	if cpiStream.N() >= 2 {
		hw, m := cpiStream.CI(0.997), cpiStream.Mean()
		res.CPIInterval = &stats.Interval{Point: m, Lo: m - hw, Hi: m + hw, Confidence: 0.997}
	}
	res.EstIPC = est.IPC()
	res.Instructions = s.Executed()
	res.Cost = s.Meter().Report(s.Scale())
	return res, nil
}

// refProxyProfile is the two-phase designs' cheap first pass: the sum
// of the proxyMetrics deltas of every full base interval.
func refProxyProfile(s *core.Session) []float64 {
	interval := s.IntervalLen()
	var vals []float64
	prev := s.Machine().Stats()
	for !s.Done() {
		ex := s.RunFast(interval)
		if ex == 0 {
			break
		}
		now := s.Machine().Stats()
		delta := now.Sub(prev)
		prev = now
		if ex < interval {
			break
		}
		v := 0.0
		for _, m := range proxyMetrics {
			v += float64(delta.Value(m))
		}
		vals = append(vals, v)
	}
	return vals
}

// refMeasureIntervals is one ascending measurement pass over a freshly
// Reset session: fast to the warm-up start, detailed warming into the
// interval, one timed interval, per index.
func refMeasureIntervals(s *core.Session, indices []int, warmIntervals int, po refPolicyObs, visit func(idx int, cpi float64)) int {
	interval := s.IntervalLen()
	warmLen := interval * uint64(warmIntervals)
	taken := 0
	for _, idx := range indices {
		start := uint64(idx) * interval
		warmStart := uint64(0)
		if start > warmLen {
			warmStart = start - warmLen
		}
		if cur := s.Executed(); warmStart > cur {
			if s.RunFast(warmStart-cur) == 0 {
				break
			}
		}
		if cur := s.Executed(); start > cur {
			s.RunDetailWarm(start - cur)
		}
		ipc, ex := s.RunTimed(interval)
		if ex < interval || ipc <= 0 {
			break
		}
		visit(idx, 1/ipc)
		po.sample(ipc)
		taken++
	}
	return taken
}

// refTwoPhase is the two-phase designs' shared prologue and epilogue.
type refTwoPhase struct {
	res     Result
	proxy   []float64
	po      refPolicyObs
	hwHist  *obs.Histogram
	roundsC *obs.Counter
	metC    *obs.Counter
	missC   *obs.Counter
}

func refBeginTwoPhase(s *core.Session, name string) (*refTwoPhase, error) {
	reg := s.Obs()
	t := &refTwoPhase{
		res: Result{Policy: name, Bench: s.Spec().Name},
		po:  newRefPolicyObs(s, name),
		hwHist: reg.Histogram("sampling_ci_rel_halfwidth_pct",
			obs.ExpBuckets(0.125, 2, 12), "policy", name),
		roundsC: reg.Counter("sampling_refine_rounds_total", "policy", name),
		metC:    reg.Counter("sampling_error_target_total", "policy", name, "outcome", "met"),
		missC:   reg.Counter("sampling_error_target_total", "policy", name, "outcome", "budget"),
	}
	t.proxy = refProxyProfile(s)
	if len(t.proxy) == 0 {
		return t, fmt.Errorf("budget shorter than one interval")
	}
	t.res.Instructions = s.Executed()
	return t, nil
}

func (t *refTwoPhase) end(s *core.Session, iv stats.Interval, targetRelHW float64) Result {
	if targetRelHW > 0 {
		t.res.TargetMet = iv.Valid() && iv.RelHalfWidth() <= targetRelHW
		if t.res.TargetMet {
			t.metC.Inc()
		} else {
			t.missC.Inc()
		}
	}
	if iv.Point > 0 {
		t.res.EstIPC = 1 / iv.Point
	}
	if iv.Valid() {
		t.res.CPIInterval = &iv
		t.hwHist.Observe(iv.RelHalfWidth() * 100)
	}
	t.res.Cost = s.Meter().Report(s.Scale())
	return t.res
}

// refStratum is one stratum's builder state during a refStratified run.
type refStratum struct {
	members []int
	order   []int
	next    int
	proxySD float64
	cpi     stats.Stream
}

func refStratified(p Stratified, s *core.Session) (Result, error) {
	p = p.withDefaults()
	tp, err := refBeginTwoPhase(s, p.Name())
	if err != nil {
		return tp.res, err
	}
	res, po, proxy := &tp.res, tp.po, tp.proxy
	n := len(proxy)

	k := p.Strata
	if k > n {
		k = n
	}
	byProxy := make([]int, n)
	for i := range byProxy {
		byProxy[i] = i
	}
	sort.SliceStable(byProxy, func(a, b int) bool {
		if proxy[byProxy[a]] != proxy[byProxy[b]] {
			return proxy[byProxy[a]] < proxy[byProxy[b]]
		}
		return byProxy[a] < byProxy[b]
	})
	strata := make([]refStratum, k)
	rng := mix.NewRNG(p.Seed)
	pos := 0
	for h := 0; h < k; h++ {
		size := n / k
		if h < n%k {
			size++
		}
		members := byProxy[pos : pos+size]
		pos += size
		var st stats.Stream
		for _, idx := range members {
			st.Add(proxy[idx])
		}
		perm := rng.Perm(size)
		order := make([]int, size)
		for i, j := range perm {
			order[i] = members[j]
		}
		strata[h] = refStratum{members: members, order: order, proxySD: st.StdDev()}
	}
	weights := make([]float64, k)
	caps := make([]int, k)
	for h := range strata {
		weights[h] = float64(len(strata[h].members)) / float64(n)
		caps[h] = len(strata[h].members)
	}

	stratumOf := make(map[int]int, p.Samples)
	measureRound := func(alloc []int) int {
		var indices []int
		for h := range strata {
			take := alloc[h]
			if room := len(strata[h].order) - strata[h].next; take > room {
				take = room
			}
			for i := 0; i < take; i++ {
				idx := strata[h].order[strata[h].next]
				strata[h].next++
				stratumOf[idx] = h
				indices = append(indices, idx)
			}
		}
		if len(indices) == 0 {
			return 0
		}
		sort.Ints(indices)
		s.Reset()
		return refMeasureIntervals(s, indices, p.WarmIntervals, po, func(idx int, cpi float64) {
			strata[stratumOf[idx]].cpi.Add(cpi)
		})
	}

	estimate := func() stats.Interval {
		sm := make([]stats.Stratum, k)
		for h := range strata {
			sm[h] = stats.Stratum{
				Weight:  weights[h],
				PopSize: uint64(len(strata[h].members)),
				Sample:  strata[h].cpi.Summary(),
			}
		}
		return stats.StratifiedMeanInterval(sm, p.Confidence)
	}

	total := p.Samples
	if total > n {
		total = n
	}
	proxySDs := make([]float64, k)
	for h := range strata {
		proxySDs[h] = strata[h].proxySD
	}
	res.Samples = measureRound(stats.NeymanAllocation(total, minPerStratum, weights, proxySDs, caps))
	iv := estimate()

	if p.TargetRelHW > 0 {
		for round := 0; round < maxRounds; round++ {
			if iv.Valid() && iv.RelHalfWidth() <= p.TargetRelHW {
				break
			}
			left := p.Budget - res.Samples
			if left <= 0 {
				break
			}
			need := k
			if iv.Valid() {
				r := iv.RelHalfWidth() / p.TargetRelHW
				need = int(math.Ceil(float64(res.Samples) * (r*r - 1)))
				if need < k {
					need = k
				}
			}
			if need > left {
				need = left
			}
			cpiSDs := make([]float64, k)
			remaining := make([]int, k)
			anyRoom := false
			for h := range strata {
				cpiSDs[h] = strata[h].cpi.StdDev()
				if cpiSDs[h] == 0 && strata[h].cpi.N() < 2 {
					cpiSDs[h] = strata[h].proxySD
				}
				remaining[h] = len(strata[h].order) - strata[h].next
				if remaining[h] > 0 {
					anyRoom = true
				}
			}
			if !anyRoom {
				break
			}
			got := measureRound(allocRemaining(need, weights, cpiSDs, remaining))
			if got == 0 {
				break
			}
			res.Samples += got
			tp.roundsC.Inc()
			iv = estimate()
		}
	}
	return tp.end(s, iv, p.TargetRelHW), nil
}

func refRankedSet(p RankedSet, s *core.Session) (Result, error) {
	p = p.withDefaults()
	tp, err := refBeginTwoPhase(s, p.Name())
	if err != nil {
		return tp.res, err
	}
	res, po, proxy := &tp.res, tp.po, tp.proxy
	n := len(proxy)

	m := p.SetSize
	if m > n {
		m = n
	}

	rng := mix.NewRNG(p.Seed)
	pool := rng.Perm(n)
	poolPos := 0
	selected := make(map[int]bool, p.Cycles*m)
	nextCandidate := func() (int, bool) {
		for {
			for poolPos < len(pool) {
				idx := pool[poolPos]
				poolPos++
				if !selected[idx] {
					return idx, true
				}
			}
			if len(selected) >= n {
				return 0, false
			}
			pool = rng.Perm(n)
			poolPos = 0
		}
	}

	selectCycles := func(cycles int) (indices []int, byCycle [][]int) {
		for c := 0; c < cycles; c++ {
			var cycle []int
			for r := 0; r < m; r++ {
				set := make([]int, 0, m)
				for len(set) < m {
					idx, ok := nextCandidate()
					if !ok {
						break
					}
					set = append(set, idx)
				}
				if len(set) == 0 {
					break
				}
				sort.Slice(set, func(a, b int) bool {
					if proxy[set[a]] != proxy[set[b]] {
						return proxy[set[a]] < proxy[set[b]]
					}
					return set[a] < set[b]
				})
				pick := r
				if pick >= len(set) {
					pick = len(set) - 1
				}
				chosen := set[pick]
				selected[chosen] = true
				cycle = append(cycle, chosen)
			}
			if len(cycle) == 0 {
				break
			}
			indices = append(indices, cycle...)
			byCycle = append(byCycle, cycle)
		}
		return indices, byCycle
	}

	cpiOf := make(map[int]float64, p.Cycles*m)
	measureCycles := func(cycles int) ([][]int, int) {
		indices, byCycle := selectCycles(cycles)
		if len(indices) == 0 {
			return nil, 0
		}
		sort.Ints(indices)
		s.Reset()
		got := refMeasureIntervals(s, indices, p.WarmIntervals, po, func(idx int, cpi float64) {
			cpiOf[idx] = cpi
		})
		return byCycle, got
	}

	var cycleMeans []float64
	var allCPI []float64
	record := func(byCycle [][]int) {
		for _, cycle := range byCycle {
			var st stats.Stream
			for _, idx := range cycle {
				if cpi, ok := cpiOf[idx]; ok {
					st.Add(cpi)
					allCPI = append(allCPI, cpi)
				}
			}
			if st.N() > 0 {
				cycleMeans = append(cycleMeans, st.Mean())
			}
		}
	}

	estimate := func() stats.Interval {
		iv := stats.BootstrapMeanInterval(cycleMeans, bootstrapResamples, p.Seed+0x9e3779b9, p.Confidence)
		sm := stats.Summarize(allCPI)
		shift := sm.Mean - iv.Point
		iv.Point = sm.Mean
		iv.Lo += shift
		iv.Hi += shift
		return iv
	}

	byCycle, got := measureCycles(p.Cycles)
	record(byCycle)
	res.Samples = got
	iv := estimate()

	if p.TargetRelHW > 0 {
		for len(cycleMeans) < p.MaxCycles {
			if iv.Valid() && iv.RelHalfWidth() <= p.TargetRelHW {
				break
			}
			add := len(cycleMeans)
			if add < 1 {
				add = 1
			}
			if iv.Valid() {
				r := iv.RelHalfWidth() / p.TargetRelHW
				need := int(math.Ceil(float64(len(cycleMeans)) * (r*r - 1)))
				if need < 1 {
					need = 1
				}
				add = need
			}
			if left := p.MaxCycles - len(cycleMeans); add > left {
				add = left
			}
			byCycle, got := measureCycles(add)
			if got == 0 {
				break
			}
			record(byCycle)
			res.Samples += got
			tp.roundsC.Inc()
			iv = estimate()
		}
	}
	return tp.end(s, iv, p.TargetRelHW), nil
}
