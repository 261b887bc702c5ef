package sampling

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// FullTiming simulates every interval in full detail: the accuracy and
// speed baseline every other policy is measured against. It records
// each interval's IPC and VM statistic deltas in Result.Trace (Figures
// 2 and 4 read it back).
type FullTiming struct{}

// Name implements Policy.
func (FullTiming) Name() string { return "Full timing" }

// Run implements Policy: one timed and traced base interval after
// another.
func (p FullTiming) Run(s *core.Session) (Result, error) {
	d := NewDriver(s, p.Name())
	prev := s.Monitored()
	d.run(func() (step, bool) { return d.at(nil, 0, 0, s.IntervalLen()), true }, func(ipc float64, _ uint64) {
		now := s.Monitored()
		d.res.Trace = append(d.res.Trace, IntervalTrace{
			Index:           uint64(len(d.res.Trace)),
			IPC:             ipc,
			TCInvalidations: now[vm.MetricCPU] - prev[vm.MetricCPU],
			Exceptions:      now[vm.MetricEXC] - prev[vm.MetricEXC],
			IOOps:           now[vm.MetricIO] - prev[vm.MetricIO],
		})
		prev = now
	})
	return d.Result(), nil
}
