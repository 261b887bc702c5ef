package sampling

// Decision is what Algorithm 1 concludes at the end of one interval.
type Decision uint8

const (
	// Arming is the first interval: there is no previous value to
	// compare against, so nothing is decided and nothing is counted.
	Arming Decision = iota
	// Steady: no monitored variable moved by more than S.
	Steady
	// Detect: a monitored variable moved by more than S — a phase
	// change; the next interval is measured.
	Detect
	// Forced: max_func consecutive functional intervals have passed; the
	// next interval is measured to keep the minimum sampling rate.
	Forced
)

// Sample reports whether the decision orders a measurement of the next
// interval.
func (d Decision) Sample() bool { return d >= Detect }

// PhaseDetector is the decision procedure of the paper's Algorithm 1,
// fed once per finished interval with that interval's value of the
// monitored variable: a phase change is declared when
// |Δvar| / max(prev,1) · 100 > S against the previous interval, and a
// measurement is forced after MaxFunc consecutive functional intervals.
// Dynamic decides through it on every target, a session's variable or
// an smp.System's summed over its guests. The zero value with the two
// parameters set is ready to use.
type PhaseDetector struct {
	// SensitivityPct is the threshold S in percent.
	SensitivityPct float64
	// MaxFunc caps consecutive functional intervals; 0 means unlimited.
	MaxFunc int

	prev    uint64
	armed   bool
	numFunc int
}

// Observe takes the finished interval's monitored value and returns the
// decision. For Detect and Forced, gap is the number of functional
// intervals since the last measurement, and the count restarts: the
// interval that follows is the measurement, and it is compared like any
// other.
func (d *PhaseDetector) Observe(val uint64) (decision Decision, gap int) {
	prev := d.prev
	d.prev = val
	if !d.armed {
		d.armed = true
		return Arming, 0
	}
	diff := val - prev
	if val < prev {
		diff = prev - val
	}
	if prev == 0 {
		prev = 1
	}
	if float64(diff)/float64(prev)*100 > d.SensitivityPct {
		gap, d.numFunc = d.numFunc, 0
		return Detect, gap
	}
	d.numFunc++
	if d.MaxFunc > 0 && d.numFunc >= d.MaxFunc {
		gap, d.numFunc = d.numFunc, 0
		return Forced, gap
	}
	return Steady, 0
}
