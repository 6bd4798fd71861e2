package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: convmeter
cpu: whatever
BenchmarkZeta-8        	     100	     12345 ns/op	     128 B/op	       3 allocs/op
BenchmarkAlpha-8       	    5000	       321.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkThroughput-8  	     200	      5000 ns/op	  123.45 MB/s	      64 B/op	       1 allocs/op
BenchmarkBare-8        	    1000	      1000 ns/op
PASS
ok  	convmeter	1.234s
`

func TestBuildSnapshot(t *testing.T) {
	snap, err := buildSnapshot(strings.Split(sampleOutput, "\n"), "1x")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SchemaV1 {
		t.Fatalf("schema = %q", snap.Schema)
	}
	names := make([]string, len(snap.Benchmarks))
	for i, b := range snap.Benchmarks {
		names[i] = b.Name
	}
	want := []string{"BenchmarkAlpha", "BenchmarkBare", "BenchmarkThroughput", "BenchmarkZeta"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("sorted names = %v, want %v", names, want)
	}
	if snap.GOMAXPROCS != 8 || snap.CPU != "whatever" || snap.NumCPU < 1 {
		t.Fatalf("host = %+v, want GOMAXPROCS 8 from the name suffix, the cpu line and this host's CPU count", snap.Host)
	}
	z := snap.Benchmarks[3]
	if z.Iterations != 100 || z.NsPerOp != 12345 || z.BytesPerOp != 128 || z.AllocsPerOp != 3 {
		t.Fatalf("Zeta parsed as %+v", z)
	}
	th := snap.Benchmarks[2]
	if th.MBPerS != 123.45 || th.AllocsPerOp != 1 {
		t.Fatalf("Throughput parsed as %+v", th)
	}
	bare := snap.Benchmarks[1]
	if bare.NsPerOp != 1000 || bare.BytesPerOp != 0 || bare.AllocsPerOp != 0 {
		t.Fatalf("Bare parsed as %+v", bare)
	}
}

func TestBuildSnapshotMergesRepeatedRuns(t *testing.T) {
	// go test -count=3 repeats each benchmark; the snapshot keeps the
	// fastest ns/op and the worst allocation profile.
	runs := "BenchmarkX-8 100 12 ns/op 8 B/op 1 allocs/op\n" +
		"BenchmarkX-8 120 10 ns/op 8 B/op 1 allocs/op\n" +
		"BenchmarkX-8 90 15 ns/op 16 B/op 2 allocs/op\n"
	snap, err := buildSnapshot(strings.Split(runs, "\n"), "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1 merged", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.NsPerOp != 10 || b.AllocsPerOp != 2 || b.BytesPerOp != 16 || b.Iterations != 120 {
		t.Fatalf("merged benchmark = %+v", b)
	}
}

func TestBuildSnapshotRejectsEmpty(t *testing.T) {
	if _, err := buildSnapshot([]string{"PASS", "ok"}, "1x"); err == nil {
		t.Fatal("benchmark-free output must be rejected")
	}
}

func TestBuildSnapshotRejectsMalformed(t *testing.T) {
	for name, out := range map[string]string{
		"unparsable-ns":   "BenchmarkX-8 100 1.2.3 ns/op\n",
		"zero-ns":         "BenchmarkX-8 100 0 ns/op\n",
		"zero-iterations": "BenchmarkX-8 0 10 ns/op\n",
		// Merging after the suffix is stripped would mix two settings.
		"mixed-gomaxprocs": "BenchmarkX-8 100 10 ns/op\nBenchmarkX-4 100 12 ns/op\n",
		"suffix-and-none":  "BenchmarkX-8 100 10 ns/op\nBenchmarkY 100 12 ns/op\n",
	} {
		t.Run(name, func(t *testing.T) {
			if snap, err := buildSnapshot(strings.Split(out, "\n"), "1x"); err == nil {
				t.Fatalf("accepted %q as %+v", out, snap)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	host := Host{GOMAXPROCS: 8, NumCPU: 8, CPU: "test cpu"}
	base := newSnapshot("1x")
	base.Host = host
	base.Benchmarks = []Benchmark{
		{Name: "BenchmarkFast", NsPerOp: 100, AllocsPerOp: 0, Iterations: 1},
		{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 0, Iterations: 1},
		{Name: "BenchmarkRetired", NsPerOp: 50, Iterations: 1},
	}
	cur := newSnapshot("1x")
	cur.Host = host
	cur.Benchmarks = []Benchmark{
		{Name: "BenchmarkFast", NsPerOp: 110, AllocsPerOp: 0, Iterations: 1},  // +10%: within threshold
		{Name: "BenchmarkHot", NsPerOp: 1200, AllocsPerOp: 2, Iterations: 1},  // +20% and new allocs
		{Name: "BenchmarkFresh", NsPerOp: 10, AllocsPerOp: 99, Iterations: 1}, // no baseline: tolerated
	}
	var log strings.Builder
	regs, matched := compare(base, cur, 0.15, &log)
	if len(regs) != 2 || matched != 2 {
		t.Fatalf("regressions = %v (%d matched), want ns/op + allocs on BenchmarkHot", regs, matched)
	}
	for _, r := range regs {
		if !strings.Contains(r, "BenchmarkHot") {
			t.Fatalf("unexpected regression %q", r)
		}
	}
	if !strings.Contains(log.String(), "BenchmarkFresh") || !strings.Contains(log.String(), "BenchmarkRetired") {
		t.Fatalf("one-sided benchmarks not reported: %q", log.String())
	}
	if strings.Contains(log.String(), "not compared") {
		t.Fatalf("same-host comparison skipped ns/op: %q", log.String())
	}
	if regs, _ := compare(base, base, 0.15, &log); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}

	t.Run("suffixed-against-unsuffixed", func(t *testing.T) {
		// A baseline written before names lost their -GOMAXPROCS suffix
		// against a fresh parse of suffixed go test output.
		old := newSnapshot("1x")
		for _, name := range []string{"BenchmarkAlpha", "BenchmarkBare", "BenchmarkThroughput", "BenchmarkZeta"} {
			old.Benchmarks = append(old.Benchmarks, Benchmark{Name: name, NsPerOp: 1, Iterations: 1, AllocsPerOp: 5})
		}
		fresh, err := buildSnapshot(strings.Split(sampleOutput, "\n"), "1x")
		if err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		regs, matched := compare(old, fresh, 0.15, &log)
		if len(regs) != 0 || matched != 4 {
			t.Fatalf("regressions = %v, %d of 4 matched", regs, matched)
		}
		if strings.Contains(log.String(), "new benchmark") || strings.Contains(log.String(), "not measured") {
			t.Fatalf("names did not match: %q", log.String())
		}
	})
	t.Run("no-overlap", func(t *testing.T) {
		other := newSnapshot("1x")
		other.Host = host
		other.Benchmarks = []Benchmark{{Name: "BenchmarkElse", NsPerOp: 1, Iterations: 1}}
		regs, matched := compare(base, other, 0.15, &strings.Builder{})
		if len(regs) != 1 || matched != 0 || !strings.Contains(regs[0], "nothing was compared") {
			t.Fatalf("a run matching no baseline name must fail: %v (%d matched)", regs, matched)
		}
	})
	t.Run("host-mismatch", func(t *testing.T) {
		// ns/op from another host is skipped; the alloc contract is not.
		moved := newSnapshot("1x")
		moved.Host = Host{GOMAXPROCS: 2, NumCPU: 2, CPU: "other cpu"}
		moved.Benchmarks = []Benchmark{
			{Name: "BenchmarkFast", NsPerOp: 500, Iterations: 1},
			{Name: "BenchmarkHot", NsPerOp: 5000, AllocsPerOp: 1, Iterations: 1},
		}
		var log strings.Builder
		regs, _ := compare(base, moved, 0.15, &log)
		if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkHot: 1 allocs/op") {
			t.Fatalf("regressions = %v, want only BenchmarkHot's allocation", regs)
		}
		if n := strings.Count(log.String(), "ns/op not compared"); n != 1 {
			t.Fatalf("want one line saying ns/op was not compared, got %d: %q", n, log.String())
		}
	})
	t.Run("baseline-without-host", func(t *testing.T) {
		unknown := *base
		unknown.Host = Host{}
		var log strings.Builder
		regs, _ := compare(&unknown, cur, 0.15, &log)
		if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
			t.Fatalf("regressions = %v, want only BenchmarkHot's allocation", regs)
		}
		if !strings.Contains(log.String(), "ns/op not compared: the baseline does not record its host") {
			t.Fatalf("missing the reason ns/op was skipped: %q", log.String())
		}
	})
}

// TestRunWritesWhatTheCheckAccepted: with -check, -out is written only
// once the check passes, from the snapshot that merged the re-measured
// rows; a check that still fails after its re-measure rounds writes no
// file, so the regressed run cannot become the next baseline.
func TestRunWritesWhatTheCheckAccepted(t *testing.T) {
	dir := t.TempDir()
	base := newSnapshot(benchtime)
	base.Host = Host{GOMAXPROCS: 8, NumCPU: runtime.NumCPU(), CPU: "test cpu"}
	base.Benchmarks = []Benchmark{
		{Name: "BenchmarkFast", NsPerOp: 100, Iterations: 1},
		{Name: "BenchmarkHot", NsPerOp: 1000, Iterations: 1},
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(name string, ns int) string {
		return fmt.Sprintf("%s-8 100 %d ns/op 0 B/op 0 allocs/op\n", name, ns)
	}
	// scripted serves one canned go test output per suite run, on this
	// host's cpu line, and records the -bench regexp of each run.
	scripted := func(rounds ...string) (suiteFunc, *[]string) {
		var asked []string
		return func(benchRe string, count int) ([]string, error) {
			asked = append(asked, benchRe)
			if len(asked) > len(rounds) {
				return nil, fmt.Errorf("suite run %d not scripted", len(asked))
			}
			return strings.Split("cpu: test cpu\n"+rounds[len(asked)-1], "\n"), nil
		}, &asked
	}

	t.Run("regressed", func(t *testing.T) {
		out := filepath.Join(dir, "BENCH_2.json")
		slow := row("BenchmarkHot", 1300) // +30% every round
		suite, asked := scripted(row("BenchmarkFast", 100)+slow, slow, slow, slow)
		err := run(out, basePath, 1, suite, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "not written") {
			t.Fatalf("err = %v, want the regression and no file written", err)
		}
		if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("a failed check left %s behind (stat: %v)", out, err)
		}
		if len(*asked) != 4 {
			t.Fatalf("suite ran %d times, want the full run and 3 re-measure rounds", len(*asked))
		}
	})
	t.Run("re-measured", func(t *testing.T) {
		out := filepath.Join(dir, "BENCH_3.json")
		suite, asked := scripted(row("BenchmarkFast", 110)+row("BenchmarkHot", 1300), row("BenchmarkHot", 1080))
		if err := run(out, basePath, 1, suite, io.Discard); err != nil {
			t.Fatal(err)
		}
		if want := []string{".", "^(BenchmarkHot)$"}; !reflect.DeepEqual(*asked, want) {
			t.Fatalf("suite runs %q, want %q", *asked, want)
		}
		snap, err := readSnapshot(out)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, b := range snap.Benchmarks {
			got[b.Name] = b.NsPerOp
		}
		// Hot is recorded at the minimum over both runs, not at the
		// first run's 1300.
		if want := map[string]float64{"BenchmarkFast": 110, "BenchmarkHot": 1080}; !reflect.DeepEqual(got, want) {
			t.Fatalf("written ns/op %v, want %v", got, want)
		}
	})
}

// TestValidateSnapshot checks the snapshot rules on files, as -check
// reads a committed baseline.
func TestValidateSnapshot(t *testing.T) {
	good := `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","goos":"linux","goarch":"amd64","benchtime":"1x",
		"benchmarks":[
			{"name":"BenchmarkA-8","iterations":100,"ns_per_op":123.5,"bytes_per_op":0,"allocs_per_op":0},
			{"name":"BenchmarkB-8","iterations":1,"ns_per_op":5000,"bytes_per_op":64,"allocs_per_op":2,"mb_per_s":12.5}]}`
	cases := []struct {
		name    string
		doc     string
		wantErr bool
	}{
		{"good", good, false},
		{"bad-json", `{"schema":`, true},
		{"wrong-schema", `{"schema":"v0","go":"go1.24.0","benchmarks":[{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"no-go-stamp", `{"schema":"convmeter/bench-snapshot/v1","benchmarks":[{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"empty", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[]}`, true},
		{"unsorted", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkB","iterations":1,"ns_per_op":1},{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"duplicate", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":1},{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"zero-iterations", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":0,"ns_per_op":1}]}`, true},
		{"missing-ns", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1}]}`, true},
		{"zero-ns", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":0}]}`, true},
		{"negative-allocs", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":1,"allocs_per_op":-1}]}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readSnapshot(path)
			if (err != nil) != tc.wantErr {
				t.Fatalf("readSnapshot err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(committed) < 4 {
		t.Fatalf("committed baselines %v (%v), want BENCH_1 to BENCH_4 at least", committed, err)
	}
	for _, path := range committed {
		if _, err := readSnapshot(path); err != nil {
			t.Errorf("committed baseline rejected: %v", err)
		}
	}
}

func TestRetryRegexp(t *testing.T) {
	regs := []string{
		"BenchmarkDataParallelStep/workers=4-8: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkDataParallelStep/workers=2-8: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkRingAllReduce: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkHot: 2 allocs/op, baseline 0 (zero-alloc contract broken)",
	}
	got := retryRegexp(regs)
	want := "^(BenchmarkDataParallelStep|BenchmarkRingAllReduce)$"
	if got != want {
		t.Fatalf("retryRegexp = %q, want %q", got, want)
	}
	if re := retryRegexp(regs[3:]); re != "" {
		t.Fatalf("alloc-only regressions produced regexp %q, want none", re)
	}
}
