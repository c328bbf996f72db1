package main

// compare.go — `forcemark -compare A.json B.json`: per workload and
// end-to-end metric, both medians, the relative change with its base,
// the bound, and a verdict.  A is the base (the parent commit, or the
// first of two runs of the same commit), B the candidate.

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// compareFiles prints the comparison and returns the exit code: 1 if
// any metric regressed.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	var sets [2]*reportFile
	for i, path := range []string{pathA, pathB} {
		rf, err := readReports(path)
		if err != nil {
			fmt.Fprintf(stderr, "forcemark: %v\n", err)
			return 2
		}
		sets[i] = rf
	}
	return compareReports(stdout, sets[0], sets[1])
}

// workloadRuns is what one set's untraced runs of one workload reported:
// the values of each end-to-end metric, which metrics some run left
// unresolved, and whether any run's output was wrong.
type workloadRuns struct {
	vals       map[string][]float64
	unresolved map[string]bool
	incorrect  bool
}

func runsByWorkload(rf *reportFile) map[string]*workloadRuns {
	out := map[string]*workloadRuns{}
	for _, r := range rf.Runs {
		if r.Env.Traced {
			continue
		}
		w := out[r.Workload]
		if w == nil {
			w = &workloadRuns{vals: map[string][]float64{}, unresolved: map[string]bool{}}
			out[r.Workload] = w
		}
		for name, m := range r.EndToEnd {
			w.vals[name] = append(w.vals[name], m.Value)
		}
		for _, name := range r.Unresolved {
			w.unresolved[name] = true
		}
		w.incorrect = w.incorrect || !r.Correct
	}
	return out
}

// verdict judges one metric: worse is the relative change in the bad
// direction (positive = worse) against base.
//
//   - regressed: worse by more than the bound;
//   - unresolved: a run could not resolve the metric, a side has no
//     value, or the base's own runs spread (quartile distance over
//     median) wider than the bound and B's runs do not all beat A's;
//   - ok otherwise.
func verdict(d metricDef, a, b []float64, flagged bool) (worse float64, status string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, "unresolved"
	}
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == higher {
		worse = -worse
	}
	if flagged {
		return worse, "unresolved"
	}
	if len(a) >= 4 {
		spread := (quantile(a, 0.75) - quantile(a, 0.25)) / ma
		if spread > d.Bound && !allBetter(d, a, b) {
			return worse, "unresolved"
		}
	}
	if worse > d.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	if d.Better == higher {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

func compareReports(w io.Writer, a, b *reportFile) int {
	ra, rb := runsByWorkload(a), runsByWorkload(b)
	var names []string
	for name := range ra {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tchange vs A\tbound\tverdict")
	status := 0
	for _, wl := range names {
		wa, wb := ra[wl], rb[wl]
		if wb == nil {
			wb = &workloadRuns{} // B has no run of it: every metric unresolved
		}
		if !wa.incorrect && wb.incorrect {
			fmt.Fprintf(tw, "%s\toutput\tcorrect\tincorrect\t\t\tregressed\n", wl)
			status = 1
		}
		for _, d := range endToEnd {
			xs, ys := wa.vals[d.Name], wb.vals[d.Name]
			worse, st := verdict(d, xs, ys, wa.unresolved[d.Name] || wb.unresolved[d.Name])
			if st == "regressed" {
				status = 1
			}
			sign := "worse"
			if worse < 0 {
				sign = "better"
				worse = -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g (n=%d)\t%.2f%% %s\t%.0f%%\t%s\n",
				wl, d.Name, median(xs), d.Unit, len(xs), median(ys), len(ys), 100*worse, sign, 100*d.Bound, st)
		}
	}
	tw.Flush()
	return status
}
