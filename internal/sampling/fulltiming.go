package sampling

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// FullTiming simulates every interval in full detail: the accuracy and
// speed baseline every other policy is measured against.
type FullTiming struct {
	// TraceIntervals, when non-zero, records per-interval IPC and VM
	// statistic deltas for the first N intervals (Figures 2 and 4).
	TraceIntervals int
}

// Name implements Policy.
func (FullTiming) Name() string { return "Full timing" }

// Run implements Policy: one timed base interval after another, the
// first TraceIntervals of them traced.
func (p FullTiming) Run(s *core.Session) (Result, error) {
	d := NewDriver(s, p.Name())
	prev := s.Monitored()
	d.run(func() (step, bool) { return d.at(nil, 0, 0, s.IntervalLen()), true }, func(ipc float64, _ uint64) {
		idx := len(d.res.Trace)
		if idx >= p.TraceIntervals {
			return
		}
		now := s.Monitored()
		d.res.Trace = append(d.res.Trace, IntervalTrace{
			Index:           uint64(idx),
			IPC:             ipc,
			TCInvalidations: now[vm.MetricCPU] - prev[vm.MetricCPU],
			Exceptions:      now[vm.MetricEXC] - prev[vm.MetricEXC],
			IOOps:           now[vm.MetricIO] - prev[vm.MetricIO],
		})
		prev = now
	})
	return d.Result(), nil
}
