package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of comparing one metric on one workload.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to an old and a new reading. worse is the
// change as a share of the old value, signed so that positive is worse. Where
// the run-to-run spread (quartile distance over median, across rounds, on
// either side) is wider than the bound, the bound cannot be applied and the
// metric is unresolved: lengthen the rounds. failed_share (bound 0)
// tolerates nothing and is never unresolved.
func judge(spec metricSpec, old, cur metric) (verdict string, worse float64) {
	if old.Value != 0 {
		worse = (cur.Value - old.Value) / old.Value
	} else if cur.Value > 0 {
		worse = 1
	}
	if spec.higher {
		worse = -worse
	}
	switch {
	case spec.bound > 0 && max(spread(old.Rounds), spread(cur.Rounds)) > spec.bound:
		return verdictUnresolved, worse
	case worse > spec.bound:
		return verdictRegression, worse
	case spec.bound > 0 && worse < -spec.bound:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

func loadResult(path string) (result, error) {
	var res result
	blob, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians and the quartiles across rounds. It returns 1 if any metric got
// worse by more than its bound, a workload's failed_share rose, or the new
// result lacks a workload or metric the old one has; 2 if the two results
// cannot be compared at all.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, old, cur)
}

func compareResults(w io.Writer, old, cur result) int {
	if old.Meta.Seed != cur.Meta.Seed || old.Meta.Seconds != cur.Meta.Seconds {
		fmt.Fprintf(w, "not comparable: old is seed %d with %d s rounds, new is seed %d with %d s rounds\n",
			old.Meta.Seed, old.Meta.Seconds, cur.Meta.Seed, cur.Meta.Seconds)
		return 2
	}
	byName := map[string]workloadResult{}
	for _, nw := range cur.Workloads {
		byName[nw.Name] = nw
	}
	regressions := 0
	fmt.Fprintf(w, "%-17s %-29s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "worse", "bound", "verdict")
	for _, ow := range old.Workloads {
		nw, ok := byName[ow.Name]
		if !ok {
			regressions++
			fmt.Fprintf(w, "%-17s missing from the new result  %s\n", ow.Name, verdictRegression)
			continue
		}
		for _, spec := range endToEndSpec {
			om, ok := ow.EndToEnd[spec.name]
			if !ok {
				continue // not a metric of this workload
			}
			nm, ok := nw.EndToEnd[spec.name]
			if !ok {
				regressions++
				fmt.Fprintf(w, "%-17s %-29s missing from the new result  %s\n", ow.Name, spec.name, verdictRegression)
				continue
			}
			verdict, worse := judge(spec, om, nm)
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-17s %-29s %12.6g %-25s %12.6g %-25s %+7.1f%% %5.0f%%  %s\n",
				ow.Name, spec.name, om.Value, quartileText(om), nm.Value, quartileText(nm), 100*worse, 100*spec.bound, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

func quartileText(m metric) string {
	if len(m.Rounds) < 2 {
		return "-"
	}
	q1, q3 := quartiles(m.Rounds)
	return fmt.Sprintf("[%.6g, %.6g]", q1, q3)
}
