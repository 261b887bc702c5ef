package check

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// FaultOptions configures FaultEquivalence.
type FaultOptions struct {
	// Progress, when non-nil, receives runner progress lines.
	Progress io.Writer
}

// What every artifact-level and sweep-level leg runs, and
// StatisticalValidity by default: the golden-test subset of the suite
// at a scale that keeps a multi-run matrix fast.
const artifactScale = 50_000

var artifactBenchmarks = []string{"gzip", "perlbmk"}

var (
	// faultSeeds drive FaultEquivalence's injectors: one faulted runner
	// per seed, each compared byte-for-byte against the fault-free run.
	faultSeeds = []uint64{1, 2, 3}
	// faultKinds must each have fired at least once across faultSeeds.
	faultKinds = []faults.Kind{faults.RunPanic, faults.RunHang, faults.RunError}
)

// faultDeadline bounds each measurement attempt in the faulted runs, so
// injected hangs heal via the deadline. It scales with the work: the
// fault-free reference render's whole wall time — every cell of the
// bundle, so well above any one attempt — times faultMargin, and never
// below faultFloor. A slow host or the race detector slows the
// reference too, so the deadline stays above a real attempt.
func faultDeadline(refWall time.Duration) time.Duration {
	const (
		faultMargin = 4
		faultFloor  = time.Second
	)
	return max(faultMargin*refWall, faultFloor)
}

// artifactVariant is one re-render of the artifact bundle under changed
// runner options; its bytes must equal the reference render's.
type artifactVariant struct {
	// label names the run in error texts. It is rendered with %v when
	// the variant fails, so an injector shows what had fired by then.
	label interface{}
	opts  experiments.Options
	// vacuous, when non-nil, runs once the variant compared equal and
	// reports a run that never exercised what the variant is there for.
	vacuous func() error
}

// compareArtifacts is the loop behind the artifact-level legs
// (FaultEquivalence, ObsArtifactInvariance): render the bundle once
// under ref, once per variant, every variant byte-identical to the
// reference. The comparison is deliberately end-to-end — both sides go
// through the full pipeline, so a fault that silently skewed a
// measurement, dropped a SimPoint, or leaked a FAILED marker shows up
// as a byte diff. leg names the check in error texts.
func compareArtifacts(leg string, render func(experiments.Options) ([]byte, error), ref experiments.Options, variants []artifactVariant) error {
	golden, err := render(ref)
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", leg, err)
	}
	for _, v := range variants {
		got, err := render(v.opts)
		if err != nil {
			return fmt.Errorf("%s: %v: %w", leg, v.label, err)
		}
		if !bytes.Equal(got, golden) {
			return fmt.Errorf("%s: %v: artifacts diverge from the reference run\n%s", leg, v.label, DiffSummary(golden, got))
		}
		if v.vacuous != nil {
			if err := v.vacuous(); err != nil {
				return fmt.Errorf("%s: %v: vacuous — %w", leg, v.label, err)
			}
		}
	}
	return nil
}

// requireFired fails a fault leg whose injectors, taken together, never
// fired one of kinds: the leg would pass without having tested it.
func requireFired(leg string, kinds []faults.Kind, injectors []*faults.Injector) error {
	fired := make(map[faults.Kind]uint64)
	for _, inj := range injectors {
		for k, n := range inj.Fired() {
			fired[k] += n
		}
	}
	for _, k := range kinds {
		if fired[k] == 0 {
			return fmt.Errorf("%s: vacuous — fault kind %q never fired across %d runs (fired: %v)", leg, k, len(injectors), fired)
		}
	}
	return nil
}

// FaultEquivalence pins the runner's healing contract: under any
// healable injected fault schedule — measurement panics, hangs, and
// transient errors — the rendered artifacts are byte-identical to a
// fault-free run, with zero recorded cell failures. Faults may cost
// wall-clock (retries, deadline waits), never results.
func FaultEquivalence(o FaultOptions) error {
	base := experiments.Options{
		Scale:      artifactScale,
		Benchmarks: artifactBenchmarks,
		Progress:   o.Progress,
	}

	plan := faults.DefaultPlan()
	var injectors []*faults.Injector
	var variants []artifactVariant
	for _, seed := range faultSeeds {
		inj := faults.New(seed, plan)
		opts := base
		opts.Faults = inj
		// Every injected run fault must be healable by retry.
		opts.Retries = plan.RunFaultAttempts + 1
		injectors = append(injectors, inj)
		variants = append(variants, artifactVariant{label: inj, opts: opts})
	}
	// The reference renders first; its wall time sets the faulted
	// runs' attempt deadline.
	var timeout time.Duration
	render := func(opts experiments.Options) ([]byte, error) {
		if opts.Faults == nil {
			t0 := time.Now()
			out, err := renderWith(opts)
			timeout = faultDeadline(time.Since(t0))
			return out, err
		}
		opts.Timeout = timeout
		return renderWith(opts)
	}
	if err := compareArtifacts("fault-equivalence", render, base, variants); err != nil {
		return err
	}
	return requireFired("fault-equivalence", faultKinds, injectors)
}

// renderWith builds a runner, renders the artifact bundle (Table 2 +
// Figure 8), and asserts the run fully healed (no recorded cell
// failures).
func renderWith(opts experiments.Options) ([]byte, error) {
	r := experiments.NewRunner(opts)
	defer r.Close()
	var buf bytes.Buffer
	if err := experiments.RenderArtifacts(r, &buf); err != nil {
		return nil, err
	}
	if fs := r.Failures(); len(fs) > 0 {
		return nil, fmt.Errorf("%d cell failure(s), first: %v", len(fs), fs[0])
	}
	return buf.Bytes(), nil
}

// DiffSummary reports the first line where two renderings — artifact
// bundles, merged journals — diverge, for actionable failure messages;
// a is the reference's. It is the one first-differing-line reporter;
// internal/smp's equivalence harness reports through it too.
func DiffSummary(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  reference: %q\n  this run:  %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: reference %d vs this run %d", len(al), len(bl))
}
