package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hostcost"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/vm"
	"repro/internal/workload"
)

// fig2Prefix is the fraction of execution Figures 2 and 4 display: the
// paper shows the first 2 G of perlbmk's 32 G instructions.
const fig2Prefix = 2.0 / 32.0

// cellText renders one results-matrix cell through format, or an
// explicit FAILED(kind) marker when the cell is missing because its
// measurement exhausted the retry ladder. Fault-free runs have every
// cell, so their renders are byte-identical to the goldens.
func cellText(r *Runner, results map[string]map[string]sampling.Result, bench, policy, format string, value func(sampling.Result) interface{}) string {
	if res, ok := results[bench][policy]; ok {
		return fmt.Sprintf(format, value(res))
	}
	if f, ok := r.FailureFor(bench, policy); ok {
		return "FAILED(" + f.Kind + ")"
	}
	return "-"
}

// failureFooter lists unrecovered cells under an artifact; it prints
// nothing on a fully healed run, keeping fault-free output byte-
// identical to the goldens.
func failureFooter(r *Runner, w io.Writer) {
	fs := r.Failures()
	if len(fs) == 0 {
		return
	}
	fmt.Fprintf(w, "\nWARNING: %d measurement(s) failed and are excluded above:\n", len(fs))
	for _, f := range fs {
		fmt.Fprintf(w, "  %s / %s: %s after %d attempts\n", f.Bench, f.Policy, f.Kind, f.Attempts)
	}
}

// bar renders a proportional ASCII bar.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Figure2 renders the correlation between a VM internal statistic (code
// exceptions) and IPC over the start of perlbmk, from the full-timing
// baseline trace.
func Figure2(r *Runner, w io.Writer) error {
	base, err := r.Baseline("perlbmk")
	if err != nil {
		return err
	}
	n := int(fig2Prefix * float64(len(base.Trace)))
	if n > len(base.Trace) {
		n = len(base.Trace)
	}
	fmt.Fprintln(w, "Figure 2. IPC vs. VM code-exception count, start of perlbmk")
	fmt.Fprintln(w, "(one row per 8 intervals; IPC and EXC bars normalised to the prefix maximum)")
	var maxIPC, maxEXC float64
	for _, tr := range base.Trace[:n] {
		if tr.IPC > maxIPC {
			maxIPC = tr.IPC
		}
		if e := float64(tr.Exceptions); e > maxEXC {
			maxEXC = e
		}
	}
	fmt.Fprintf(w, "%6s  %6s %-24s  %5s %-24s\n", "int", "IPC", "", "EXC", "")
	for i := 0; i < n; i += 8 {
		// Aggregate 8 intervals per row.
		var ipc float64
		var exc uint64
		cnt := 0
		for j := i; j < i+8 && j < n; j++ {
			ipc += base.Trace[j].IPC
			exc += base.Trace[j].Exceptions
			cnt++
		}
		ipc /= float64(cnt)
		eAvg := float64(exc) / float64(cnt)
		fmt.Fprintf(w, "%6d  %6.3f %-24s  %5.0f %-24s\n",
			i, ipc, bar(ipc, maxIPC, 24), eAvg, bar(eAvg, maxEXC, 24))
	}
	return nil
}

// Figure3 renders the sampling schedules of SMARTS, SimPoint, and
// Dynamic Sampling over the start of gzip as timelines, one character
// per base interval marked by the most detailed mode that runs in it:
// '.' full-speed functional execution, 'f' functional warming, 'w'
// detailed warming, '#' timed simulation.
func Figure3(r *Runner, w io.Writer) error {
	const spanIntervals = 120
	fmt.Fprintln(w, "Figure 3. Sampling schemes of SMARTS, SimPoint, and Dynamic Sampling")
	fmt.Fprintf(w, "(first %d base intervals of gzip; . fast  f func-warming  w detail-warm  # timed)\n\n", spanIntervals)
	spec, err := workload.ByName("gzip")
	if err != nil {
		return err
	}
	total := spec.ScaledInstr(r.Options().Scale)
	L := workload.DefaultIntervalLen(total)
	newRow := func() []byte { return []byte(strings.Repeat(".", spanIntervals)) }
	// mark records that mode runs over instructions [from, to): every
	// interval the range touches shows mode unless it already shows a
	// more detailed one.
	mark := func(row []byte, from, to uint64, mode byte) {
		for i := from / L; from < to && i < spanIntervals && i*L < to; i++ {
			if strings.IndexByte(".fw#", mode) > strings.IndexByte(".fw#", row[i]) {
				row[i] = mode
			}
		}
	}

	// SMARTS: its periodic (functional warming, detailed warming,
	// timed) unit, laid out from the configuration the runner uses.
	sm := sampling.DefaultSMARTS(total)
	warm := sm.UnitInstr * sm.DetailWarmUnits
	row := newRow()
	for at := uint64(0); at < spanIntervals*L; at += sm.PeriodInstr {
		timed := at + sm.PeriodInstr - sm.UnitInstr
		mark(row, at, timed-warm, 'f')
		mark(row, timed-warm, timed, 'w')
		mark(row, timed, timed+sm.UnitInstr, '#')
	}
	fmt.Fprintf(w, "a. SMARTS      %s\n", row)

	// SimPoint: chosen simulation points. With a handful of clusters
	// over the whole run, the points are sparse; the row is rendered
	// over the complete execution, compressed to the display width.
	an, err := r.Analysis("gzip")
	if err != nil {
		return err
	}
	row = newRow()
	for _, p := range an.Points {
		pos := uint64(min(p*spanIntervals/an.NumIntervals, spanIntervals-1))
		mark(row, (pos-min(pos, 1))*L, pos*L, 'w')
		mark(row, pos*L, (pos+1)*L, '#')
	}
	fmt.Fprintf(w, "b. SimPoint    %s (whole run, compressed)\n", row)

	// Dynamic Sampling: after each detection of the CPU-300-1M-∞ run,
	// the settle interval at full speed, detailed warming, the timed
	// interval.
	dyn := sampling.NewDynamic(vm.MetricCPU, 300, 1, 0)
	ds, err := r.Run("gzip", dyn)
	if err != nil {
		return err
	}
	row = newRow()
	for _, d := range ds.Detections {
		warmAt := (d + 1 + uint64(dyn.SettleIntervals)) * L
		timed := warmAt + uint64(dyn.WarmIntervals)*L
		mark(row, warmAt, timed, 'w')
		mark(row, timed, timed+dyn.IntervalMul*L, '#')
	}
	fmt.Fprintf(w, "c. Dyn.Sampling%s\n", row)
	fmt.Fprintln(w, "\nSimPoint additionally requires a full profiling pass before simulation;")
	fmt.Fprintln(w, "SMARTS requires functional warming of every instruction. Dynamic Sampling")
	fmt.Fprintln(w, "runs the VM at full speed between detected phase changes.")
	return nil
}

// Figure4 renders the correlation between SimPoint's simulation points
// and Dynamic Sampling's detected phases on the start of perlbmk, with
// the EXC metric as monitored variable (as in the paper). SimPoint is
// run over the same prefix the figure displays, as in the paper's
// Figure 4, where the shown simulation points come from a profile of
// the displayed execution fragment.
func Figure4(r *Runner, w io.Writer) error {
	base, err := r.Baseline("perlbmk")
	if err != nil {
		return err
	}
	ds, err := r.Run("perlbmk", sampling.NewDynamic(vm.MetricEXC, 300, 1, 0))
	if err != nil {
		return err
	}
	n := int(fig2Prefix * float64(len(base.Trace)))

	// Profile and cluster the prefix only.
	spec, err := workload.ByName("perlbmk")
	if err != nil {
		return err
	}
	s := core.NewSession(spec, core.Options{Scale: r.Options().Scale})
	prof := simpoint.NewProfiler(simpoint.DefaultDim, 0x51a9)
	sampling.NewDriver(s, "SimPoint").Walk(prof, n, func(uint64) { prof.EndInterval() })
	spPts, _ := simpoint.Representatives(prof.Vectors(), simpoint.ChooseK(prof.Vectors(), 16, 8, 0.9, 0x51a9))
	var dsPts []int
	for _, d := range ds.Detections {
		if int(d) < n {
			dsPts = append(dsPts, int(d))
		}
	}
	fmt.Fprintln(w, "Figure 4. SimPoint simulation points vs. dynamically detected phases")
	fmt.Fprintf(w, "(start of perlbmk, %d intervals; DS monitors EXC at S=300%%)\n", n)
	fmt.Fprintf(w, "SimPoint points  (SP): %v\n", spPts)
	fmt.Fprintf(w, "Dynamic detections(P): %v\n", dsPts)

	// Agreement: distance from each simulation point to the nearest
	// dynamic detection, in intervals.
	if len(spPts) > 0 && len(dsPts) > 0 {
		var sum float64
		matched := 0
		for _, p := range spPts {
			best := -1
			for _, d := range dsPts {
				dd := p - d
				if dd < 0 {
					dd = -dd
				}
				if best < 0 || dd < best {
					best = dd
				}
			}
			sum += float64(best)
			if float64(best) <= 0.05*float64(n) {
				matched++
			}
		}
		fmt.Fprintf(w, "mean |SP - nearest P| = %.1f intervals; %d/%d points matched within 5%% of the prefix\n",
			sum/float64(len(spPts)), matched, len(spPts))
	}
	return nil
}

// ParetoOptimal marks which aggregates are Pareto optimal in the
// (error, speedup) plane (smaller error better, larger speedup better).
func ParetoOptimal(aggs []Aggregate) []bool {
	opt := make([]bool, len(aggs))
	for i := range aggs {
		opt[i] = true
		for j := range aggs {
			if j == i {
				continue
			}
			if aggs[j].MeanErrPct <= aggs[i].MeanErrPct && aggs[j].Speedup >= aggs[i].Speedup &&
				(aggs[j].MeanErrPct < aggs[i].MeanErrPct || aggs[j].Speedup > aggs[i].Speedup) {
				opt[i] = false
				break
			}
		}
	}
	return opt
}

// fig5Aggregates is the data of Figure 5: the suite aggregate of every
// policy but full timing, in AllPolicies order.
func fig5Aggregates(r *Runner) ([]Aggregate, error) {
	policies := AllPolicies(r.Options().Scale)
	results, err := r.RunAll(policies)
	if err != nil {
		return nil, err
	}
	var aggs []Aggregate
	for _, p := range policies {
		if p.Name() == "Full timing" {
			continue
		}
		aggs = append(aggs, AggregateFor(results, r.Benchmarks(), p.Name()))
	}
	return aggs, nil
}

// Figure5 renders the accuracy-vs-speed scatter as a sorted table with
// Pareto-optimal points marked.
func Figure5(r *Runner, w io.Writer) error {
	aggs, err := fig5Aggregates(r)
	if err != nil {
		return err
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].Speedup > aggs[j].Speedup })
	pareto := ParetoOptimal(aggs)

	fmt.Fprintln(w, "Figure 5. Accuracy vs. speed (suite average; * = Pareto optimal)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\taccuracy error\tspeedup vs full timing\tPareto")
	for i, a := range aggs {
		mark := ""
		if pareto[i] {
			mark = "*"
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1fx\t%s\n", a.Policy, a.MeanErrPct, a.Speedup, mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failureFooter(r, w)
	return nil
}

// fig67Order returns the policy display order of Figures 6 and 7.
func fig67Order(includeProf bool) []string {
	order := []string{"Full timing", "SMARTS", "SimPoint"}
	if includeProf {
		order = append(order, "SimPoint+prof")
	}
	for _, p := range Fig67Policies() {
		order = append(order, p.Name())
	}
	return order
}

// fig67Results runs the policies of Figures 6 and 7: the baselines and
// the Dynamic Sampling configurations.
func fig67Results(r *Runner) (map[string]map[string]sampling.Result, error) {
	return r.RunAll(append(BaselinePolicies(r.Options().Scale), Fig67Policies()...))
}

// Figure6 renders mean IPC per policy with accuracy-error labels.
func Figure6(r *Runner, w io.Writer) error {
	results, err := fig67Results(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6. IPC results (suite mean; error % vs. full timing)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "timing policy\tmean IPC\taccuracy error\t")
	for _, name := range fig67Order(false) {
		a := AggregateFor(results, r.Benchmarks(), name)
		label := fmt.Sprintf("%.1f%%", a.MeanErrPct)
		if name == "Full timing" {
			label = "-"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%s\n", name, a.MeanIPC, label, bar(a.MeanIPC, 2, 30))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failureFooter(r, w)
	return nil
}

// Figure7 renders total simulation time per policy (modelled,
// paper-equivalent) with speedup labels.
func Figure7(r *Runner, w io.Writer) error {
	results, err := fig67Results(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7. Simulation time (modelled host time, extrapolated to paper scale)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "timing policy\ttotal sim time\tspeedup vs full timing")
	for _, name := range fig67Order(true) {
		a := AggregateFor(results, r.Benchmarks(), name)
		sp := "1x"
		if name != "Full timing" {
			sp = fmt.Sprintf("%.1fx", a.Speedup)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, hostcost.FormatDuration(a.TotalSeconds), sp)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failureFooter(r, w)
	return nil
}

// fig89Policies are the per-benchmark detail policies of Figures 8/9.
func fig89Policies(scale int) []sampling.Policy {
	return append(BaselinePolicies(scale),
		sampling.NewDynamic(vm.MetricCPU, 300, 1, 0))
}

// fig9Cols are the columns of Figure 9 and of Figure89CSV: every
// fig89Policies result, SimPoint+prof included.
var fig9Cols = []string{"Full timing", "SMARTS", "SimPoint", "SimPoint+prof", "CPU-300-1M-∞"}

// Figure8 renders per-benchmark IPC for full timing, SMARTS, SimPoint
// and CPU-300-1M-∞.
func Figure8(r *Runner, w io.Writer) error {
	results, err := r.RunAll(fig89Policies(r.Options().Scale))
	if err != nil {
		return err
	}
	cols := []string{"Full timing", "SMARTS", "SimPoint", "CPU-300-1M-∞"}
	fmt.Fprintln(w, "Figure 8. IPC results per benchmark")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, b := range r.Benchmarks() {
		fmt.Fprintf(tw, "%s", b)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%s", cellText(r, results, b, c, "%.3f",
				func(res sampling.Result) interface{} { return res.EstIPC }))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failureFooter(r, w)
	return nil
}

// Figure9 renders per-benchmark simulation time (modelled,
// paper-equivalent) for the Figure 8 policies plus SimPoint+prof.
func Figure9(r *Runner, w io.Writer) error {
	results, err := r.RunAll(fig89Policies(r.Options().Scale))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9. Simulation time per benchmark (modelled, paper-equivalent)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark")
	for _, c := range fig9Cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, b := range r.Benchmarks() {
		fmt.Fprintf(tw, "%s", b)
		for _, c := range fig9Cols {
			fmt.Fprintf(tw, "\t%s", cellText(r, results, b, c, "%s",
				func(res sampling.Result) interface{} { return hostcost.FormatDuration(res.Cost.PaperSeconds) }))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failureFooter(r, w)
	return nil
}
