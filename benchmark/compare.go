package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: the medians of both sides, the ratio
// of the second to the first (its base), the bound, both sides' run-to-run
// spread, and the verdict.
type comparison struct {
	workload, metric string
	a, b             float64
	na, nb           int
	spreadA, spreadB float64
	bound            float64
	absolute         bool
	verdict          string
}

// judge applies the benchmark's rule to one metric. With several runs a side
// whose own spread is wider than the bound cannot resolve a difference of
// the bound's size: the row is unresolved, never "same". Otherwise the
// second side is worse when its median is worse than the first's by more
// than the bound.
func judge(m endToEndMetric, bound float64, as, bs []float64) comparison {
	c := comparison{metric: m.name, a: median(as), b: median(bs), na: len(as), nb: len(bs), bound: bound, absolute: m.absolute}
	if m.absolute {
		c.spreadA, c.spreadB = quartileDistance(as), quartileDistance(bs)
	} else {
		c.spreadA, c.spreadB = spread(as), spread(bs)
	}
	diff := c.b - c.a
	if m.better == higher {
		diff = -diff
	}
	if !m.absolute {
		if c.a == 0 {
			diff = math.Inf(1)
			if c.b == 0 {
				diff = 0
			}
		} else {
			diff /= math.Abs(c.a)
		}
	}
	switch {
	case len(as) > 1 && len(bs) > 1 && (c.spreadA > bound || c.spreadB > bound):
		c.verdict = verdictUnresolved
	case diff > bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictSame
	}
	return c
}

// compareResults builds one row per (workload, end-to-end metric) that both
// files measured, in catalog order. Traced runs never contribute.
func compareResults(a, b resultFile) []comparison {
	values := func(rf resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range rf.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, w := range workloads {
		for _, m := range endToEnd {
			bound, ok := m.bound(w)
			if !ok {
				continue
			}
			as, bs := values(a, w.name, m.name), values(b, w.name, m.name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			c := judge(m, bound, as, bs)
			c.workload = w.name
			rows = append(rows, c)
		}
	}
	return rows
}

// compareFiles prints the comparison of two result files and reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	rows := compareResults(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no (workload, metric) row", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbase\tbound\tspread_a\tspread_b\truns\tverdict")
	worse := false
	for _, c := range rows {
		ratio := "-"
		if c.a != 0 {
			ratio = fmt.Sprintf("%.4f", c.b/c.a)
		}
		bound := fmt.Sprintf("%g%%", c.bound*100)
		sa, sb := fmt.Sprintf("%.2f%%", c.spreadA*100), fmt.Sprintf("%.2f%%", c.spreadB*100)
		if c.absolute {
			bound = fmt.Sprintf("%g abs", c.bound)
			sa, sb = fmt.Sprintf("%.4g", c.spreadA), fmt.Sprintf("%.4g", c.spreadB)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.6g\t%s\t%s\t%s\t%d/%d\t%s\n",
			c.workload, c.metric, c.a, c.b, ratio, c.a, bound, sa, sb, c.na, c.nb, c.verdict)
		worse = worse || c.verdict == verdictWorse
	}
	return worse, tw.Flush()
}
