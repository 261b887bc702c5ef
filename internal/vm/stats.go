package vm

import "fmt"

// Stats are the VM's internal statistics. They are the heart of the
// paper's proposal: they are maintained during *fast* functional
// emulation at negligible cost, and Dynamic Sampling reads them between
// intervals to detect phase changes without per-instruction events.
type Stats struct {
	// Guest-architecture statistics (what hardware counters would see).
	Instructions uint64
	MemReads     uint64
	MemWrites    uint64
	Branches     uint64
	TakenBr      uint64

	// Exception statistics (the paper's EXC metric). Exceptions is the
	// aggregate: guest page faults + software-TLB refills + system calls.
	Exceptions uint64
	PageFaults uint64
	TLBRefills uint64
	Syscalls   uint64

	// Translation-cache statistics (the paper's CPU metric is
	// TCInvalidations). Invalidation counts individual blocks dropped,
	// whether by self-modifying-code detection or by a capacity flush,
	// matching "every time some piece of code is evicted from the
	// translation cache, a counter is incremented".
	TCInvalidations uint64
	TCTranslations  uint64
	TCFlushes       uint64

	// I/O statistics (the paper's I/O metric is IOOps: data transfers
	// between the CPU and any device).
	IOOps        uint64
	IOBytes      uint64
	ConsoleBytes uint64
	DiskReads    uint64
	DiskWrites   uint64
}

// Sub returns the field-wise difference s - prev, i.e. the statistics
// accumulated since prev was captured.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Instructions:    s.Instructions - prev.Instructions,
		MemReads:        s.MemReads - prev.MemReads,
		MemWrites:       s.MemWrites - prev.MemWrites,
		Branches:        s.Branches - prev.Branches,
		TakenBr:         s.TakenBr - prev.TakenBr,
		Exceptions:      s.Exceptions - prev.Exceptions,
		PageFaults:      s.PageFaults - prev.PageFaults,
		TLBRefills:      s.TLBRefills - prev.TLBRefills,
		Syscalls:        s.Syscalls - prev.Syscalls,
		TCInvalidations: s.TCInvalidations - prev.TCInvalidations,
		TCTranslations:  s.TCTranslations - prev.TCTranslations,
		TCFlushes:       s.TCFlushes - prev.TCFlushes,
		IOOps:           s.IOOps - prev.IOOps,
		IOBytes:         s.IOBytes - prev.IOBytes,
		ConsoleBytes:    s.ConsoleBytes - prev.ConsoleBytes,
		DiskReads:       s.DiskReads - prev.DiskReads,
		DiskWrites:      s.DiskWrites - prev.DiskWrites,
	}
}

// Metric selects one of the monitored internal statistics used by the
// Dynamic Sampling algorithm (Section 4.1 of the paper).
type Metric uint8

const (
	// MetricCPU is the code-cache (translation-cache) invalidation count.
	MetricCPU Metric = iota
	// MetricEXC is the guest exception count (syscalls, page misses, ...).
	MetricEXC
	// MetricIO is the device I/O operation count.
	MetricIO
)

// ParseMetric converts the paper's metric names (CPU, EXC, I/O) into a
// Metric value.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "CPU", "cpu":
		return MetricCPU, nil
	case "EXC", "exc":
		return MetricEXC, nil
	case "I/O", "IO", "io", "i/o":
		return MetricIO, nil
	}
	return 0, fmt.Errorf("vm: unknown metric %q (want CPU, EXC, or I/O)", name)
}

func (m Metric) String() string {
	switch m {
	case MetricCPU:
		return "CPU"
	case MetricEXC:
		return "EXC"
	case MetricIO:
		return "I/O"
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// Value extracts the monitored statistic from a Stats record.
func (s Stats) Value(m Metric) uint64 { return metricOf(&s, m) }

// Stat returns one monitored statistic of the machine: Stats().Value
// without copying the record, for callers that poll it every interval.
func (m *Machine) Stat(metric Metric) uint64 { return metricOf(&m.stats, metric) }

// metricOf reads the monitored statistic m of *s.
func metricOf(s *Stats, m Metric) uint64 {
	switch m {
	case MetricCPU:
		return s.TCInvalidations
	case MetricEXC:
		return s.Exceptions
	case MetricIO:
		return s.IOOps
	}
	return 0
}
