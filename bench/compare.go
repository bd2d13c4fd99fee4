package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares a metric's values in result set b against those in a:
// "regressed" when b's median is worse than a's by more than bound (a share
// of a's median), "unresolved" when either side's own run-to-run spread is
// wider than the bound — the sets cannot tell a change of that size from
// noise, so neither "ok" nor "regressed" would mean anything.
func judge(a, b []float64, m metricSpec) (verdict string, medA, medB, spreadA, spreadB float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, median(a), median(b), 0, 0
	}
	medA, medB = median(a), median(b)
	spreadA, spreadB = spread(a), spread(b)
	if spreadA > m.Bound || spreadB > m.Bound {
		return verdictUnresolved, medA, medB, spreadA, spreadB
	}
	worse := medB > medA*(1+m.Bound)
	if m.Better == "higher" {
		worse = medB < medA*(1-m.Bound)
	}
	if worse {
		return verdictRegressed, medA, medB, spreadA, spreadB
	}
	return verdictOK, medA, medB, spreadA, spreadB
}

// values collects a metric's untraced values for one workload.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Traced || !r.Correct {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets writes one line per (workload, end-to-end metric) and returns
// how many regressed and how many could not be resolved.
func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) (regressed, unresolved int) {
	fmt.Fprintf(w, "a: %+v\nb: %+v\n", a.Fingerprint, b.Fingerprint)
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintln(w, "warning: the two sets were measured on different machines or toolchains")
	}
	fmt.Fprintf(w, "%-15s %-22s %-10s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "verdict", "median a", "median b", "b/a", "iqr a", "iqr b", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v, medA, medB, spA, spB := judge(a.values(wl.Name, m.Name), b.values(wl.Name, m.Name), m)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved, verdictMissing:
				unresolved++
			}
			ratio := 0.0
			if medA != 0 {
				ratio = medB / medA
			}
			fmt.Fprintf(w, "%-15s %-22s %-10s %14.6g %14.6g %8.3f %8.3f %8.3f %6.2f\n",
				wl.Name, m.Name, v, medA, medB, ratio, spA, spB, m.Bound)
		}
	}
	return regressed, unresolved
}

func runCompare(specPath, aPath, bPath string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResultSet(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResultSet(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	regressed, unresolved := compareSets(os.Stdout, spec, a, b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
