package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaV1 identifies the snapshot format; validate checks every
// snapshot claiming it that benchsnap writes or reads.
const SchemaV1 = "convmeter/bench-snapshot/v1"

// Snapshot is one benchmark baseline. Benchmarks are sorted by name so
// committed snapshots diff cleanly.
type Snapshot struct {
	Schema    string `json:"schema"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime"`
	Host
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Host holds the facts about the measuring machine that ns/op depends
// on beyond the code. Timings from two snapshots are comparable only
// when both record the same, complete Host; snapshots written before
// these fields existed record none.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"` // from the benchmark names' -N suffix
	NumCPU     int    `json:"num_cpu,omitempty"`    // runtime.NumCPU of the host
	CPU        string `json:"cpu,omitempty"`        // the model go test prints as "cpu:"
}

func (h Host) complete() bool { return h.GOMAXPROCS > 0 && h.NumCPU > 0 && h.CPU != "" }

// timesComparableWith reports whether ns/op measured on h can be
// compared with ns/op measured on o: both hosts are recorded in full
// and equal.
func (h Host) timesComparableWith(o Host) bool { return h.complete() && h == o }

func (h Host) String() string {
	return fmt.Sprintf("GOMAXPROCS %d, %d CPUs, %q", h.GOMAXPROCS, h.NumCPU, h.CPU)
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// benchLine matches the standard benchmark output format, e.g.
//
//	BenchmarkFoo-8   1000   1234 ns/op   12.50 MB/s   56 B/op   7 allocs/op
//
// The name's -N suffix is the GOMAXPROCS the benchmark ran at; go test
// omits it at GOMAXPROCS 1. The MB/s, B/op and allocs/op columns are
// each optional but ordered.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op` +
		`(?:\s+([0-9.]+) MB/s)?` +
		`(?:\s+(\d+) B/op)?` +
		`(?:\s+(\d+) allocs/op)?`)

// buildSnapshot parses raw `go test -bench` output lines into a sorted,
// validated snapshot. Names lose their -GOMAXPROCS suffix, so runs on
// hosts with different core counts name the same benchmark alike; the
// suffix is recorded once as the snapshot's GOMAXPROCS, and results at
// two different settings are rejected rather than merged. A benchmark
// appearing multiple times (go test -count > 1) is merged: minimum
// ns/op — the measurement least polluted by scheduler noise — and
// maximum bytes/allocs per op, so the alloc contract reflects the worst
// observed run.
func buildSnapshot(lines []string, benchtime string) (*Snapshot, error) {
	snap := newSnapshot(benchtime)
	byName := map[string]*Benchmark{}
	for i, line := range lines {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b, procs, err := parseResult(m)
		if err != nil {
			return nil, fmt.Errorf("line %d: %q: %v", i+1, line, err)
		}
		if snap.GOMAXPROCS == 0 {
			snap.GOMAXPROCS = procs
		} else if procs != snap.GOMAXPROCS {
			return nil, fmt.Errorf("line %d: %s ran at GOMAXPROCS %d, earlier results at %d; snapshot one setting at a time",
				i+1, b.Name, procs, snap.GOMAXPROCS)
		}
		prev, ok := byName[b.Name]
		if !ok {
			byName[b.Name] = &b
			snap.Benchmarks = append(snap.Benchmarks, Benchmark{Name: b.Name})
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, b.NsPerOp)
		prev.MBPerS = max(prev.MBPerS, b.MBPerS)
		prev.BytesPerOp = max(prev.BytesPerOp, b.BytesPerOp)
		prev.AllocsPerOp = max(prev.AllocsPerOp, b.AllocsPerOp)
		prev.Iterations = max(prev.Iterations, b.Iterations)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	for i := range snap.Benchmarks {
		snap.Benchmarks[i] = *byName[snap.Benchmarks[i].Name]
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	if err := snap.validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// parseResult converts one benchLine match into a Benchmark and the
// GOMAXPROCS its name's suffix records (1 without one). A number that
// does not parse is an error, never a zero.
func parseResult(m []string) (Benchmark, int, error) {
	b := Benchmark{Name: m[1]}
	procs, err1 := strconv.Atoi(cmp.Or(m[2], "1"))
	var err2, err3, err4, err5, err6 error
	b.Iterations, err2 = strconv.ParseInt(m[3], 10, 64)
	b.NsPerOp, err3 = strconv.ParseFloat(m[4], 64)
	b.MBPerS, err4 = strconv.ParseFloat(cmp.Or(m[5], "0"), 64)
	b.BytesPerOp, err5 = strconv.ParseInt(cmp.Or(m[6], "0"), 10, 64)
	b.AllocsPerOp, err6 = strconv.ParseInt(cmp.Or(m[7], "0"), 10, 64)
	return b, procs, errors.Join(err1, err2, err3, err4, err5, err6)
}

// validate checks a snapshot before benchsnap writes or trusts it: the
// schema tag, the go version stamp, a non-empty benchmark list sorted
// by unique name (so diffs are stable), at least one measured iteration
// per benchmark, a positive ns/op — a baseline with a zero or missing
// ns/op would make every later comparison meaningless — and no negative
// value. Neither JSON nor the output parser can carry a NaN or an
// infinity, so every value is finite.
func (s *Snapshot) validate() error {
	if s.Schema != SchemaV1 {
		return fmt.Errorf("schema %q, want %q", s.Schema, SchemaV1)
	}
	if s.Go == "" {
		return fmt.Errorf("missing go version stamp")
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks")
	}
	prev := ""
	for i, b := range s.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("benchmark %d has no name", i)
		}
		if b.Name <= prev {
			return fmt.Errorf("benchmark names not sorted/unique at %q", b.Name)
		}
		prev = b.Name
		if b.Iterations < 1 {
			return fmt.Errorf("%s: iterations %d, want >= 1", b.Name, b.Iterations)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("%s: ns_per_op %v, want > 0", b.Name, b.NsPerOp)
		}
		if b.BytesPerOp < 0 || b.AllocsPerOp < 0 || b.MBPerS < 0 {
			return fmt.Errorf("%s: negative bytes_per_op %d, allocs_per_op %d or mb_per_s %v",
				b.Name, b.BytesPerOp, b.AllocsPerOp, b.MBPerS)
		}
	}
	return nil
}

// compare diffs cur against base. Its regressions are:
//   - a 0-allocs/op benchmark that now allocates. The zero-alloc
//     contract is binary and holds on any host, so it is always checked.
//   - ns/op beyond the fractional threshold, checked only when both
//     snapshots record the same complete Host; otherwise one line to w
//     says that ns/op was not compared, and why.
//   - a run that matches no baseline name at all, which would otherwise
//     pass having compared nothing.
//
// Benchmarks present on only one side are reported to w but tolerated,
// so adding or retiring a benchmark does not break the check. matched
// counts the benchmarks present on both sides.
func compare(base, cur *Snapshot, threshold float64, w io.Writer) (regressions []string, matched int) {
	timed := base.Host.timesComparableWith(cur.Host)
	switch {
	case !base.Host.complete():
		_, _ = fmt.Fprintf(w, "benchsnap: ns/op not compared: the baseline does not record its host in full (this run: %s)\n", cur.Host)
	case !timed:
		_, _ = fmt.Fprintf(w, "benchsnap: ns/op not compared: baseline host (%s) differs from this run's (%s)\n", base.Host, cur.Host)
	}
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	for _, c := range cur.Benchmarks {
		b, ok := baseBy[c.Name]
		if !ok {
			_, _ = fmt.Fprintf(w, "benchsnap: %s: new benchmark (no baseline)\n", c.Name)
			continue
		}
		delete(baseBy, c.Name)
		matched++
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op, baseline 0 (zero-alloc contract broken)",
				c.Name, c.AllocsPerOp))
		}
		if timed && c.NsPerOp > b.NsPerOp*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (+%.0f%%, threshold %.0f%%)",
				c.Name, c.NsPerOp, b.NsPerOp,
				(c.NsPerOp/b.NsPerOp-1)*100, threshold*100))
		}
	}
	// Deterministic report order for the survivors of the map walk.
	var missing []string
	for name := range baseBy {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		_, _ = fmt.Fprintf(w, "benchsnap: %s: in baseline but not measured\n", name)
	}
	if matched == 0 {
		regressions = append(regressions, fmt.Sprintf(
			"none of the %d measured benchmarks is named in the baseline's %d: nothing was compared",
			len(cur.Benchmarks), len(base.Benchmarks)))
	}
	return regressions, matched
}
