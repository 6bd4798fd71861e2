package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResult(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

// compareFiles prints, for every workload both results hold and every
// end-to-end metric, each side's value between the quartiles of its
// rounds' values, and whether b stays within the metric's bound of a.
// It reports false when any metric fails or either side had a failed
// output check.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (seed %d, drift %.3f)\nb: %s (seed %d, drift %.3f)\n",
		pathA, a.Seed, a.Yardstick.Drift, pathB, b.Seed, b.Yardstick.Drift)
	fmt.Fprintf(w, "%-10s %-12s %11s %11s %11s   %11s %11s %11s %8s %6s\n",
		"workload", "metric", "a q1", "a value", "a q3", "b q1", "b value", "b q3", "change", "result")
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload in common")
	}
	ok := true
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if !wa.Correct || !wb.Correct {
			ok = false
			fmt.Fprintf(w, "%-10s output checks failed (a correct %t, b correct %t)\n", n, wa.Correct, wb.Correct)
		}
		for _, spec := range endToEnd {
			ma, mb := wa.Metrics[spec.Name], wb.Metrics[spec.Name]
			qa, qb := quartiles(ma.Segments), quartiles(mb.Segments)
			pass := withinBound(ma.Value, mb.Value, spec.Bound, spec.Better)
			verdict := "PASS"
			if !pass {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-10s %-12s %11.5g %11.5g %11.5g   %11.5g %11.5g %11.5g %+7.1f%% %6s\n",
				n, spec.Name, qa[0], ma.Value, qa[2], qb[0], mb.Value, qb[2],
				100*worsening(ma.Value, mb.Value, spec.Better), verdict)
		}
	}
	fmt.Fprintln(w, "change is how much worse b is than a; a metric fails when that exceeds its bound")
	return ok, nil
}
