package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// TestSimPointOneMeasurementPath pins that the Runner and a bare
// simpoint.Policy.Run produce the same record for both accounting
// variants: repro's journal and `dynsim -policy simpoint [-prof]` (and
// every differ that drives Policy.Run) must not disagree on what a
// SimPoint run cost.
func TestSimPointOneMeasurementPath(t *testing.T) {
	t.Parallel()
	const scale = 50_000
	for _, bench := range []string{"gzip", "mcf"} {
		spec, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(Options{Scale: scale, Benchmarks: []string{bench}, CkptOff: true})
		for _, prof := range []bool{false, true} {
			p := simpoint.New(prof)
			got, err := r.Run(bench, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run(core.NewSession(spec, core.Options{Scale: scale}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: Runner.Run and Policy.Run disagree\n runner %+v\n policy %+v", bench, p.Name(), got, want)
			}
		}
	}
}
