package main

import (
	"fmt"
	"io"
	"os"
)

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares one metric of a new result against its base. worse is
// the relative change in the metric's bad direction (positive = worse).
//
//   - fail_ratio (bound 0): any increase regresses, any decrease improves.
//   - a recorded same-code spread wider than the bound means the machine
//     cannot resolve a change of the size the bound forbids: unresolved.
//   - worse by more than the bound: regressed.
//   - better by more than the spread (and at all): improved.
//   - otherwise unchanged.
func judge(base, cur Metric) (ratio float64, v verdict) {
	if base.Value != 0 {
		ratio = cur.Value / base.Value
	}
	diff := cur.Value - base.Value
	if base.Better == "higher" {
		diff = -diff
	}
	bound := base.Bound
	if bound == 0 {
		switch {
		case diff > 0:
			return ratio, regressed
		case diff < 0:
			return ratio, improved
		}
		return ratio, unchanged
	}
	if base.Value == 0 {
		// No base to take a share of; only an exact tie is "unchanged".
		if diff == 0 {
			return ratio, unchanged
		}
		return ratio, unresolved
	}
	worse := diff / base.Value
	noise := max(base.Spread, cur.Spread)
	switch {
	case noise > bound:
		return ratio, unresolved
	case worse > bound:
		return ratio, regressed
	case worse < 0 && -worse > noise:
		return ratio, improved
	}
	return ratio, unchanged
}

// compareResults prints, per workload and metric, base, new, ratio,
// bound and verdict, and returns the process exit code: 1 on any
// regression (a higher fail_ratio is one), 0 otherwise.
func compareResults(base, cur Result, out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "base %s seed %d  |  new %s seed %d\n", base.GitCommit, base.Seed, cur.GitCommit, cur.Seed)
	for _, bw := range base.Workloads {
		cw, ok := cur.workload(bw.Name)
		if !ok {
			fmt.Fprintf(out, "\n%s: missing from the new result\n", bw.Name)
			code = 1
			continue
		}
		fmt.Fprintf(out, "\n%s\n  %-16s %12s %12s %8s %7s  %s\n", bw.Name, "metric", "base", "new", "ratio", "bound", "verdict")
		for _, bm := range bw.Metrics {
			cm, ok := cw.metric(bm.Name)
			if !ok {
				// A percentile the new run had too few samples to report.
				fmt.Fprintf(out, "  %-16s %12.4f %12s %8s %6.1f%%  %s\n", bm.Name, bm.Value, "-", "-", bm.Bound*100, unresolved)
				continue
			}
			ratio, v := judge(bm, cm)
			fmt.Fprintf(out, "  %-16s %12.4f %12.4f %8.4f %6.1f%%  %s\n", bm.Name, bm.Value, cm.Value, ratio, bm.Bound*100, v)
			if v == regressed {
				code = 1
			}
		}
	}
	return code
}

// loadComparable reads a result file for -compare, refusing one
// measured with a non-default window: the bounds were not set for it.
func loadComparable(path string) (Result, error) {
	r, err := readResult(path)
	if err != nil {
		return r, err
	}
	if !r.Comparable {
		return r, fmt.Errorf("%s was measured with a %.0fs window, not the committed %ds: not comparable", path, r.WindowS, runSeconds)
	}
	return r, nil
}

// compareFiles is -compare.
func compareFiles(basePath, curPath string) int {
	base, err := loadComparable(basePath)
	if err != nil {
		fatal(2, "%v", err)
	}
	cur, err := loadComparable(curPath)
	if err != nil {
		fatal(2, "%v", err)
	}
	return compareResults(base, cur, os.Stdout)
}
