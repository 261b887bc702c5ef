package check

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// FaultOptions configures FaultEquivalence.
type FaultOptions struct {
	// Scale and Benchmarks configure every runner in the comparison
	// (defaults: 50_000 and {gzip, perlbmk} — the golden-test subset).
	Scale      int
	Benchmarks []string
	// Parallelism bounds concurrent measurements per runner.
	Parallelism int
	// Seeds drive the injectors: one faulted runner per seed, each
	// compared byte-for-byte against the fault-free run (default 1..3).
	Seeds []uint64
	// Plan is the injection plan (zero value means faults.DefaultPlan).
	Plan faults.Plan
	// Timeout bounds each measurement attempt in the faulted runs, so
	// injected hangs heal via the deadline (default 10s — comfortably
	// above a real cell at these scales, even under the race detector).
	Timeout time.Duration
	// CkptDir is the checkpoint directory shared by every runner. The
	// fault-free run populates its disk tier, guaranteeing the faulted
	// runs perform disk loads — without that, the read/corruption
	// injection sites would be vacuously dead. Empty means a fresh
	// temporary directory, removed when the check returns.
	CkptDir string
	// RequireKinds lists fault kinds that must have fired at least once
	// across all seeds; the check fails (vacuous) otherwise. nil skips
	// the assertion.
	RequireKinds []faults.Kind
	// Progress, when non-nil, receives runner progress lines.
	Progress io.Writer
}

func (o *FaultOptions) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 50_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip", "perlbmk"}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if (o.Plan == faults.Plan{}) {
		o.Plan = faults.DefaultPlan()
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
}

// FaultEquivalence pins the runner's healing contract: under any
// healable injected fault schedule — disk I/O errors, torn and
// corrupted checkpoint files, measurement panics, hangs, and transient
// errors — the rendered artifacts are byte-identical to a fault-free
// run, with zero recorded cell failures. Faults may cost wall-clock
// (retries, cache misses, deadline waits), never results.
//
// The comparison is deliberately end-to-end: both sides render the
// same artifact bundle (Table 2 + Figure 8) through the full pipeline,
// so a fault that silently skewed a measurement, dropped a SimPoint,
// or leaked a FAILED marker shows up as a byte diff.
func FaultEquivalence(o FaultOptions) error {
	o.setDefaults()

	dir := o.CkptDir
	if dir == "" {
		d, err := os.MkdirTemp("", "fault-equiv-*")
		if err != nil {
			return fmt.Errorf("fault-equivalence: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}

	base := experiments.Options{
		Scale:       o.Scale,
		Benchmarks:  o.Benchmarks,
		Parallelism: o.Parallelism,
		Progress:    o.Progress,
		CkptDir:     dir,
	}

	// Fault-free golden run. Its deposits land in the shared disk tier,
	// so every faulted runner below starts with a warm on-disk cache and
	// must survive read faults and corruption on load.
	golden, err := renderWith(base)
	if err != nil {
		return fmt.Errorf("fault-equivalence: fault-free run: %w", err)
	}

	fired := make(map[faults.Kind]uint64)
	for _, seed := range o.Seeds {
		inj := faults.New(seed, o.Plan)
		opts := base
		opts.Faults = inj
		opts.Timeout = o.Timeout
		// Every injected run fault must be healable by retry.
		opts.Retries = o.Plan.RunFaultAttempts + 1

		got, err := renderWith(opts)
		if err != nil {
			return fmt.Errorf("fault-equivalence: seed %d: %w [%s]", seed, err, inj)
		}
		if !bytes.Equal(got, golden) {
			return fmt.Errorf("fault-equivalence: seed %d: artifacts diverge from fault-free run [%s]\n%s",
				seed, inj, DiffSummary(golden, got))
		}
		for k, n := range inj.Fired() {
			fired[k] += n
		}
	}

	for _, k := range o.RequireKinds {
		if fired[k] == 0 {
			return fmt.Errorf("fault-equivalence: vacuous — fault kind %q never fired across seeds %v (fired: %v)",
				k, o.Seeds, fired)
		}
	}
	return nil
}

// renderWith builds a runner, renders the artifact bundle, and asserts
// the run fully healed (no recorded cell failures).
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

// DiffSummary reports the first line where two rendered artifacts
// diverge, for actionable failure messages. Exported for the chaos
// harness, which checks the same byte-identity invariants.
func DiffSummary(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  fault-free: %q\n  faulted:    %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: fault-free %d vs faulted %d", len(al), len(bl))
}
