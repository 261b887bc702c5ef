package sampling

import (
	"encoding/json"
	"testing"
)

// With fewer than two timed units SMARTS has no confidence bound. The
// result must still marshal: the runner journals it and a sweep worker
// posts it, and encoding/json refuses an infinite bound.
func TestSMARTSWithoutBoundMarshals(t *testing.T) {
	for _, c := range []struct {
		scale   int
		samples int
	}{{100_000_000, 0}, {50_000_000, 1}} {
		s := sessionFor(t, "gzip", c.scale)
		res, err := DefaultSMARTS(s.Spec().ScaledInstr(c.scale)).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples != c.samples {
			t.Fatalf("scale %d: %d samples, want %d", c.scale, res.Samples, c.samples)
		}
		if res.CPIInterval != nil {
			t.Errorf("scale %d: CPIInterval = %+v with %d units, want nil", c.scale, *res.CPIInterval, res.Samples)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("scale %d: %v", c.scale, err)
		}
	}
}
