package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Failure kinds, recorded on a CellFailure after the retry ladder is
// exhausted.
const (
	// FailPanic: the measurement panicked (isolated via recover).
	FailPanic = "panic"
	// FailTimeout: the measurement exceeded its per-attempt deadline.
	FailTimeout = "timeout"
	// FailError: the measurement returned an error.
	FailError = "error"
)

// CellFailure records one (benchmark, policy) measurement that could
// not be completed after the runner's full retry and degradation
// ladder. It is an error — Run returns it — but RunAll treats it as
// data: the cell is marked failed in the results matrix and rendering
// emits an explicit FAILED marker instead of aborting the sweep.
//
// Failures are deliberately never journaled: a resumed run retries the
// cell from scratch, because the fault that killed it (a flaky disk, an
// injected schedule, a transient bug) may be gone.
type CellFailure struct {
	Bench string
	// Policy is the execution key (PolicyKeyOf), so one SimPoint pipeline
	// failure covers both its accounting variants.
	Policy string
	// Kind is FailPanic, FailTimeout, or FailError.
	Kind string
	// Attempts is how many times the measurement was tried.
	Attempts int
	// Msg is the final attempt's failure message (the panic value and
	// stack, the deadline error, or the returned error).
	Msg string
}

func (f *CellFailure) Error() string {
	return fmt.Sprintf("experiments: %s on %s failed (%s after %d attempts): %s",
		f.Policy, f.Bench, f.Kind, f.Attempts, f.Msg)
}

// errPanic tags an attempt that died by panic, so the retry loop can
// classify it.
var errPanic = errors.New("measurement panicked")

// classifyAttempt maps an attempt error to a failure kind.
func classifyAttempt(err error) string {
	switch {
	case errors.Is(err, errPanic):
		return FailPanic
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	default:
		return FailError
	}
}

// Failures returns every recorded cell failure, ordered by benchmark
// then policy key. Empty on a fully healed run.
func (r *Runner) Failures() []*CellFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*CellFailure, 0, len(r.failures))
	for _, k := range sortedKeys(r.failures) {
		out = append(out, r.failures[k])
	}
	return out
}

// FailureFor returns the recorded failure covering one (benchmark,
// policy display name) cell, if any. Display names are mapped to
// execution keys, so both SimPoint variants report the one pipeline
// failure.
func (r *Runner) FailureFor(bench, policyName string) (*CellFailure, bool) {
	key := bench + "\x00" + keyOf(policyName)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.failures[key]
	return f, ok
}

func sortedKeys(m map[string]*CellFailure) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
