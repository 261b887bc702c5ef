package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one workload × metric: base and change medians against
// the bound, with the run-to-run spread deciding whether "no worse" can
// be claimed at all.
func verdict(base, change summary, better string, bound float64) (string, float64) {
	worse := 0.0 // share of the base median by which the change is worse
	if base.Median != 0 {
		worse = (change.Median - base.Median) / base.Median
		if better == "higher" {
			worse = -worse
		}
	}
	if worse > bound {
		return "regressed", worse
	}
	if base.spread() > bound || change.spread() > bound {
		// Too noisy to call unchanged, unless every run of the change
		// reads better than every run of the base.
		allBetter := len(base.Values) > 0 && len(change.Values) > 0
		for _, c := range change.Values {
			for _, b := range base.Values {
				if (better == "higher" && c <= b) || (better != "higher" && c >= b) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	return "ok", worse
}

// compareFiles prints one row per workload with every metric's base,
// change and verdict, and returns the process exit code: non-zero on a
// regression, a higher failure share, or a changed sim_fingerprint.
func compareFiles(stdout, stderr io.Writer, specPath, basePath, changePath string, allowSim bool) int {
	var spec benchSpec
	var base, change result
	for _, f := range []struct {
		path string
		v    interface{}
	}{{specPath, &spec}, {basePath, &base}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	bad := false
	for _, side := range []struct {
		name string
		r    *result
	}{{"base", &base}, {"change", &change}} {
		if side.r.Host.Degraded {
			fmt.Fprintf(stdout, "host_degraded: the %s ran on %d CPU(s); its throughput numbers are not those of the %d-CPU load shape\n", side.name, side.r.Host.NumCPU, loadCPUs)
		}
	}
	if base.Seed != change.Seed || base.Quick != change.Quick || base.Sizes != change.Sizes {
		fmt.Fprintf(stdout, "different inputs: base seed=%d quick=%v sizes=%+v, change seed=%d quick=%v sizes=%+v\n",
			base.Seed, base.Quick, base.Sizes, change.Seed, change.Quick, change.Sizes)
		bad = true
	}

	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(tw, "\t%s", m.Name)
	}
	fmt.Fprintln(tw, "\tfailed/ops\tsim_fingerprint")
	for _, n := range names {
		b, c := base.Workloads[n], change.Workloads[n]
		if c == nil {
			fmt.Fprintf(tw, "%s\tmissing from %s\n", n, changePath)
			bad = true
			continue
		}
		fmt.Fprint(tw, n)
		for _, m := range spec.EndToEnd {
			v, worse := verdict(b.EndToEnd[m.Name], c.EndToEnd[m.Name], m.Better, m.Bound)
			if v == "regressed" {
				bad = true
			}
			// Every ratio with its base: "base → change (±% worse) verdict".
			fmt.Fprintf(tw, "\t%.5g → %.5g (%+.1f%% of %.1f%%) %s", b.EndToEnd[m.Name].Median, c.EndToEnd[m.Name].Median, worse*100, m.Bound*100, v)
		}
		fails := fmt.Sprintf("%d/%d → %d/%d", b.FailedOps, b.Ops, c.FailedOps, c.Ops)
		if b.Ops > 0 && c.Ops > 0 && float64(c.FailedOps)/float64(c.Ops) > float64(b.FailedOps)/float64(b.Ops) {
			fails += " WORSE"
			bad = true
		}
		sim := "same"
		if b.SimFingerprint != c.SimFingerprint {
			sim = b.SimFingerprint + " → " + c.SimFingerprint
			if !allowSim {
				sim += " CHANGED"
				bad = true
			}
		}
		fmt.Fprintf(tw, "\t%s\t%s\n", fails, sim)
	}
	tw.Flush()
	fmt.Fprintln(stdout, strings.TrimSpace(`
"(x% of y%)" is how much worse the change's median is than the base's, as a share of the base, against the bound.
ok: within the bound.  regressed: beyond it.  unresolved: the inter-quartile spread of either side is wider than the bound and the runs overlap.`))
	if bad {
		return 1
	}
	return 0
}
