// Command benchsnap captures the repository's benchmark baseline: it
// runs the `go test -bench` suites, parses the standard benchmark
// output and writes a benchstat-comparable JSON snapshot
// (schema convmeter/bench-snapshot/v1, validated whenever benchsnap
// writes or reads one). The committed BENCH_<n>.json files record the
// perf trajectory; in -check mode benchsnap re-runs the suites and
// fails when a 0-allocs/op benchmark starts allocating — the suite-wide
// counterpart of the AllocsPerRun pins on every hot path — when a
// benchmark regresses beyond the ns/op threshold against a baseline
// recorded on the same host, or when no benchmark matches the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Every snapshot in the trajectory measures the same suite the same
// way: all benchmarks of pkgs, each for benchtime, which is time-based
// so micro-benchmarks get enough iterations to beat timer granularity
// while the experiment benches stay cheap. A check tolerates a
// threshold fractional ns/op regression.
const (
	benchtime = "20ms"
	threshold = 0.15
)

var pkgs = []string{"./", "./internal/obs"}

func main() {
	out := flag.String("out", "", "write the snapshot JSON to this file (with -check, only once the check passes)")
	check := flag.String("check", "", "baseline snapshot to compare a fresh run against; exit 1 on regression")
	count := flag.Int("count", 5, "go test -count value; repeated measurements are merged by min ns/op to filter scheduler and GC noise")
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchsnap: nothing to do (pass -out and/or -check)")
		os.Exit(2)
	}
	if err := run(*out, *check, *count, runSuite, os.Stdout); err != nil {
		fatal(err)
	}
}

// suiteFunc runs the benchmarks a -bench regexp selects, count times
// each, and returns the raw `go test` output lines.
type suiteFunc func(benchRe string, count int) ([]string, error)

// run measures the suite and, with check set, compares the snapshot
// against that baseline, re-measuring the regressed benchmarks. The
// snapshot goes to out last: a failed check writes nothing, so a
// regressed run never becomes the next baseline, and a passed one
// records the re-measured rows at their merged values.
func run(out, check string, count int, suite suiteFunc, w io.Writer) error {
	lines, err := suite(".", count) // every benchmark of the suite
	if err != nil {
		return err
	}
	snap, err := buildSnapshot(lines, benchtime)
	if err != nil {
		return err
	}
	if check != "" {
		base, err := readSnapshot(check)
		if err != nil {
			return err
		}
		regressions, matched := compare(base, snap, threshold, w)
		// A regression may be machine load, not code: re-measure only the
		// offending benchmarks and keep the per-benchmark minimum. The
		// minimum is monotone under more samples while the baseline is
		// fixed, so genuine regressions survive and noise converges away.
		for retry := 0; len(regressions) > 0 && retry < 3; retry++ {
			re := retryRegexp(regressions)
			if re == "" {
				break // allocation regressions are deterministic: re-measuring cannot clear them
			}
			_, _ = fmt.Fprintf(w, "benchsnap: re-measuring %d regressed benchmark(s)\n", len(regressions))
			more, err := suite(re, count<<(retry+1))
			if err != nil {
				return err
			}
			lines = append(lines, more...)
			if snap, err = buildSnapshot(lines, benchtime); err != nil {
				return err
			}
			regressions, matched = compare(base, snap, threshold, io.Discard)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchsnap:", r)
			}
			if out != "" {
				return fmt.Errorf("%d regression(s) against %s; %s not written", len(regressions), check, out)
			}
			return fmt.Errorf("%d regression(s) against %s", len(regressions), check)
		}
		timing := "ns/op not compared"
		if base.Host.timesComparableWith(snap.Host) {
			timing = fmt.Sprintf("ns/op within %.0f%%", threshold*100)
		}
		_, _ = fmt.Fprintf(w, "benchsnap: %d of %d baseline benchmarks matched in %s: 0-allocs/op ones still allocate nothing; %s\n",
			matched, len(base.Benchmarks), check, timing)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	_, _ = fmt.Fprintf(w, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), out)
	return nil
}

// retryRegexp builds the -bench regexp selecting the top-level
// benchmarks named in ns/op regressions ("" if none, e.g. only alloc
// regressions). Sub-benchmark paths are stripped: go test selects by
// top-level function first.
func retryRegexp(regressions []string) string {
	seen := map[string]bool{}
	var names []string
	for _, r := range regressions {
		if !strings.Contains(r, "ns/op") {
			continue
		}
		name, _, _ := strings.Cut(r, ":")
		name, _, _ = strings.Cut(name, "/")
		if !seen[name] {
			seen[name] = true
			names = append(names, regexp.QuoteMeta(name))
		}
	}
	if len(names) == 0 {
		return ""
	}
	return "^(" + strings.Join(names, "|") + ")$"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}

// runSuite runs the benchmarks benchRe selects in every package of the
// suite and returns the raw `go test` output lines. Benchmark-less
// packages yield no benchmark lines, which is fine; a failing build or
// test is not.
func runSuite(benchRe string, count int) ([]string, error) {
	var lines []string
	for _, pkg := range pkgs {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", benchRe, "-benchmem", "-benchtime", benchtime,
			"-count", strconv.Itoa(count), pkg)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %v\n%s", pkg, err, out)
		}
		lines = append(lines, strings.Split(string(out), "\n")...)
	}
	return lines, nil
}

// newSnapshot stamps the environment the numbers were measured in, so
// a later diff knows whether it is comparing like with like;
// buildSnapshot adds the host facts the benchmark output carries.
func newSnapshot(benchtime string) *Snapshot {
	return &Snapshot{
		Schema:    SchemaV1,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime,
		Host:      Host{NumCPU: runtime.NumCPU()},
	}
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: invalid snapshot JSON: %v", path, err)
	}
	if err := snap.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &snap, nil
}
