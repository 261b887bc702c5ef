// Command diffcheck runs the differential-execution and invariant
// checks in internal/check against seeded random guest programs and
// against the sampling policies.
//
// Usage:
//
//	diffcheck [-legs a,b,c] [-seed N] [-n COUNT] [-chunk C] [-scale S] [-bench LIST] [-v]
//
// -legs selects the checks to run, in the order given (default
// "programs,policies"):
//
//	programs   every program-level check below on each generated program
//	lockstep   fast-mode vs event-mode lockstep differencing
//	snapshot   snapshot/restore round trip
//	serialize  serialized (WriteTo/ReadSnapshot) round trip
//	replay     same-partitioning replay determinism
//	chunks     chunk-partitioning agreement
//	policies   sampling-policy determinism per benchmark
//	ckpt       checkpoint cache equivalence: every policy with the store
//	           off, cold, and warmed, bit-identical each time
//	batch      event-batch invariance: each generated program and every
//	           policy re-run per capacity in check.BatchSizes against a
//	           reference that delivers and counts one event at a time
//	obs        observability invariance: every policy, and the rendered
//	           artifact bundle, identical with metrics and trace attached
//	faults     fault equivalence: the runner under seeded measurement
//	           faults (panics, hangs, transient errors) renders
//	           byte-identical artifacts
//	sweep      sweep equivalence: a distributed coordinator/worker sweep
//	           with worker kills and checkpoint upload outages merges to
//	           the sequential run's bytes, exactly once (-sweep-workers)
//	chaos      chaos schedules: the same sweep with the coordinator
//	           killed at write-ahead-log offsets, torn tails, worker
//	           kills and checkpoint upload outages (-chaos-schedules)
//	stats      statistical validity of the Stratified/RankedSet
//	           confidence intervals: coverage, seed determinism, journal
//	           round trip, error targeting (-stats-runs)
//
// Program legs run seeds seed..seed+n-1; policy legs run the -bench
// list at -scale. Any divergence is reported with the first differing
// field and a disassembled window around the divergence PC, and the
// exit status is 1; re-running with the printed command line reproduces
// it exactly. An unknown leg name exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// env is what the flags resolve to; every leg reads its parameters here.
type env struct {
	seed, n      uint64
	o            check.Options
	scale        int
	benches      []string
	verbose      bool
	sweepWorkers []int
	chaosN       int
	statsRuns    int
}

// legs is the registry -legs selects from.
var legs = []struct {
	name string
	run  func(*env) error
}{
	{"programs", programLeg("programs", func(p *check.Program, o check.Options) (*check.Divergence, error) {
		_, div, err := check.CheckProgram(p.Seed, o)
		return div, err
	})},
	{"lockstep", programLeg("lockstep", func(p *check.Program, o check.Options) (*check.Divergence, error) {
		div, _, err := check.Lockstep(p, o)
		return div, err
	})},
	{"snapshot", programLeg("snapshot", check.SnapshotRoundTrip)},
	{"serialize", programLeg("serialize", check.SerializedRoundTrip)},
	{"replay", programLeg("replay", check.ReplayDeterminism)},
	{"chunks", programLeg("chunks", check.ChunkAgreement)},
	{"policies", policyLeg("policy determinism", check.PolicyDeterminism)},
	{"ckpt", policyLeg("checkpoint equivalence", check.CheckpointEquivalence)},
	{"batch", func(e *env) error {
		if err := programLeg("batch", check.BatchInvariance)(e); err != nil {
			return err
		}
		return policyLeg(fmt.Sprintf("batch invariance (batch sizes %v)", check.BatchSizes), check.PolicyBatchInvariance)(e)
	}},
	{"obs", func(e *env) error {
		if err := policyLeg("obs invariance", check.ObsInvariance)(e); err != nil {
			return err
		}
		return report(check.ObsArtifactInvariance(e.scale*2, e.benches),
			"obs artifact invariance ok (artifacts byte-identical with metrics attached)")
	}},
	{"faults", func(e *env) error {
		return report(check.FaultEquivalence(check.FaultOptions{Progress: e.progress()}),
			"fault equivalence ok (artifacts byte-identical under injected faults)")
	}},
	{"sweep", func(e *env) error {
		return report(check.SweepEquivalence(check.SweepOptions{Workers: e.sweepWorkers, Progress: e.progress()}),
			"sweep equivalence ok (distributed sweep byte-identical to sequential run, exactly-once accounting)")
	}},
	{"chaos", func(e *env) error {
		co := check.ChaosOptions{Seed: e.seed, Schedules: e.chaosN, Progress: os.Stdout}
		if e.verbose {
			co.Progress, co.Verbose = os.Stderr, true
		}
		if err := check.ChaosExploration(co); err != nil {
			return fmt.Errorf("%w\ndiffcheck: reproduce with: diffcheck -legs chaos -seed %d -chaos-schedules %d",
				err, e.seed, e.chaosN)
		}
		fmt.Printf("diffcheck: chaos exploration ok (%d schedules from seed %d; coordinator kill/restart, WAL tears, worker kills — artifacts byte-identical, exactly-once)\n",
			e.chaosN, e.seed)
		return nil
	}},
	{"stats", func(e *env) error {
		return report(check.StatisticalValidity(check.StatValidityOptions{Runs: e.statsRuns, Progress: e.progress()}),
			"statistical validity ok (interval coverage, seed determinism, journal round-trip, error targeting)")
	}},
}

// report prints a harness leg's success line, or passes its error on.
func report(err error, ok string) error {
	if err == nil {
		fmt.Println("diffcheck: " + ok)
	}
	return err
}

// progress is where the harnesses' progress lines go: nowhere unless -v.
func (e *env) progress() io.Writer {
	if e.verbose {
		return os.Stderr
	}
	return nil
}

// programLeg runs one program-level check over the programs generated
// from seeds seed..seed+n-1.
func programLeg(name string, checkProgram func(*check.Program, check.Options) (*check.Divergence, error)) func(*env) error {
	return func(e *env) error {
		for s := e.seed; s < e.seed+e.n; s++ {
			div, err := checkProgram(check.Generate(s), e.o)
			if err != nil {
				return err
			}
			if div != nil {
				return fmt.Errorf("%v\ndiffcheck: reproduce with: diffcheck -legs %s -seed %d -n 1 -chunk %d",
					div, name, s, e.o.Chunk)
			}
			if e.verbose {
				fmt.Printf("seed %d: %s ok\n", s, name)
			}
		}
		fmt.Printf("diffcheck: %s ok (%d programs, seeds %d..%d, chunk %d)\n",
			name, e.n, e.seed, e.seed+e.n-1, e.o.Chunk)
		return nil
	}
}

// policyLeg runs one per-benchmark policy check over the -bench list.
func policyLeg(what string, checkBench func(string, core.Options, []sampling.Policy) error) func(*env) error {
	return func(e *env) error {
		for _, b := range e.benches {
			if err := checkBench(b, core.Options{Scale: e.scale}, nil); err != nil {
				return err
			}
			if e.verbose {
				fmt.Printf("%s on %s: ok at scale %d\n", what, b, e.scale)
			}
		}
		fmt.Printf("diffcheck: %s ok (%s at scale %d)\n", what, strings.Join(e.benches, ", "), e.scale)
		return nil
	}
}

// positiveInts parses a comma-separated list of integers >= 1 ("" is
// the empty list); a bad entry exits 2.
func positiveInts(flagName, list string) []int {
	if list == "" {
		return nil
	}
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "diffcheck: bad -%s entry %q\n", flagName, s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var names []string
	for _, l := range legs {
		names = append(names, l.name)
	}
	var (
		legList      = flag.String("legs", "programs,policies", "comma-separated checks to run: "+strings.Join(names, ","))
		seed         = flag.Uint64("seed", 1, "first generator seed (program legs, chaos)")
		n            = flag.Uint64("n", 100, "number of generated programs per program leg")
		chunk        = flag.Uint64("chunk", 0, "sync-point granularity in instructions (0 = default 509)")
		scale        = flag.Int("scale", 50_000, "benchmark scale divisor for the policy legs")
		bench        = flag.String("bench", "gzip,mcf", "comma-separated benchmarks for the policy legs (\"all\" = every benchmark)")
		sweepWorkers = flag.String("sweep-workers", "", "comma-separated worker counts for the sweep leg (default 2,4)")
		chaosN       = flag.Int("chaos-schedules", 8, "fault schedules for the chaos leg")
		statsRuns    = flag.Int("stats-runs", 0, "seeded runs per policy per benchmark for the stats leg (0 = default 100)")
		verb         = flag.Bool("v", false, "report every seed and benchmark, not just failures")
	)
	flag.Parse()

	e := &env{
		seed: *seed, n: *n, o: check.DefaultOptions(), scale: *scale, verbose: *verb,
		sweepWorkers: positiveInts("sweep-workers", *sweepWorkers),
		chaosN:       *chaosN,
		statsRuns:    *statsRuns,
	}
	if *chunk != 0 {
		e.o.Chunk = *chunk
	}
	if e.chaosN <= 0 {
		e.chaosN = 8
	}
	if *bench == "all" {
		e.benches = workload.Names()
	} else {
		for _, b := range strings.Split(*bench, ",") {
			e.benches = append(e.benches, strings.TrimSpace(b))
		}
	}

	var selected []func(*env) error
	for _, name := range strings.Split(*legList, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, l := range legs {
			if l.name == name {
				selected = append(selected, l.run)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "diffcheck: unknown leg %q (valid: %s)\n", name, strings.Join(names, ","))
			os.Exit(2)
		}
	}
	for _, run := range selected {
		if err := run(e); err != nil {
			fmt.Fprintf(os.Stderr, "diffcheck: %v\n", err)
			os.Exit(1)
		}
	}
}
