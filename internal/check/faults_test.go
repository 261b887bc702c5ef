package check

import "testing"

// TestFaultEquivalence is the robustness pin: across multiple injector
// seeds covering measurement panics, hangs, and transient errors, the
// rendered artifacts must be byte-identical to a fault-free run with
// zero recorded cell failures.
func TestFaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-equivalence sweep is slow; skipped in -short")
	}
	if err := FaultEquivalence(FaultOptions{}); err != nil {
		t.Fatal(err)
	}
}
