package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sampling"
)

// CSV exporters for the data behind each figure, for external plotting.
// Each writes one record per data point with a header row; all of them
// reuse the Runner's memoised measurements, so exporting after the text
// figures is nearly free.

// Figure2CSV writes the per-interval trace of the perlbmk prefix:
// interval, IPC, and the three monitored VM statistics.
func Figure2CSV(r *Runner, w io.Writer) error {
	base, err := r.Baseline("perlbmk")
	if err != nil {
		return err
	}
	n := int(fig2Prefix * float64(len(base.Trace)))
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"interval", "ipc", "tc_invalidations", "exceptions", "io_ops"}); err != nil {
		return err
	}
	for i := 0; i < n && i < len(base.Trace); i++ {
		tr := base.Trace[i]
		rec := []string{
			strconv.FormatUint(tr.Index, 10),
			strconv.FormatFloat(tr.IPC, 'f', 4, 64),
			strconv.FormatUint(tr.TCInvalidations, 10),
			strconv.FormatUint(tr.Exceptions, 10),
			strconv.FormatUint(tr.IOOps, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Figure5CSV writes the accuracy/speed scatter: policy, mean error %,
// speedup, Pareto flag.
func Figure5CSV(r *Runner, w io.Writer) error {
	aggs, err := fig5Aggregates(r)
	if err != nil {
		return err
	}
	pareto := ParetoOptimal(aggs)
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "error_pct", "speedup", "pareto"}); err != nil {
		return err
	}
	for i, a := range aggs {
		rec := []string{
			a.Policy,
			strconv.FormatFloat(a.MeanErrPct, 'f', 3, 64),
			strconv.FormatFloat(a.Speedup, 'f', 2, 64),
			strconv.FormatBool(pareto[i]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Figure67CSV writes mean IPC, error, total modelled seconds, and
// speedup per policy (the data of Figures 6 and 7 combined).
func Figure67CSV(r *Runner, w io.Writer) error {
	results, err := fig67Results(r)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "mean_ipc", "error_pct", "paper_seconds", "speedup"}); err != nil {
		return err
	}
	for _, name := range fig67Order(true) {
		a := AggregateFor(results, r.Benchmarks(), name)
		rec := []string{
			name,
			strconv.FormatFloat(a.MeanIPC, 'f', 4, 64),
			strconv.FormatFloat(a.MeanErrPct, 'f', 3, 64),
			strconv.FormatFloat(a.TotalSeconds, 'f', 0, 64),
			strconv.FormatFloat(a.Speedup, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Figure89CSV writes per-benchmark IPC and modelled time for the
// Figure 8/9 policy set; a failed cell reads FAILED(kind) in both of its
// columns, as it does in the figures.
func Figure89CSV(r *Runner, w io.Writer) error {
	results, err := r.RunAll(fig89Policies(r.Options().Scale))
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{"benchmark"}
	for _, c := range fig9Cols {
		header = append(header, c+"_ipc", c+"_seconds")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, b := range r.Benchmarks() {
		rec := []string{b}
		for _, c := range fig9Cols {
			rec = append(rec,
				cellText(r, results, b, c, "%.4f", func(res sampling.Result) interface{} { return res.EstIPC }),
				cellText(r, results, b, c, "%.0f", func(res sampling.Result) interface{} { return res.Cost.PaperSeconds }))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAllCSV renders every exporter into files under dir via open.
func WriteAllCSV(r *Runner, open func(name string) (io.WriteCloser, error)) error {
	exports := []struct {
		name string
		f    func(*Runner, io.Writer) error
	}{
		{"fig2_perlbmk_trace.csv", Figure2CSV},
		{"fig5_accuracy_speed.csv", Figure5CSV},
		{"fig67_policies.csv", Figure67CSV},
		{"fig89_per_benchmark.csv", Figure89CSV},
	}
	for _, e := range exports {
		wc, err := open(e.name)
		if err != nil {
			return err
		}
		if err := e.f(r, wc); err != nil {
			wc.Close()
			return fmt.Errorf("experiments: exporting %s: %w", e.name, err)
		}
		if err := wc.Close(); err != nil {
			return err
		}
	}
	return nil
}
