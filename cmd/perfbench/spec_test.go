package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and the metric
// tables the binary reports from in agreement, and checks the file's
// limits.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !sameSet(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(f.Paths, []string{"cmd/perfbench"}) {
		t.Errorf("paths %v", f.Paths)
	}
	if len(f.Command) == 0 || f.Command[0] != "bash" || f.Command[1] != "cmd/perfbench/run.sh" {
		t.Errorf("command %v", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	var wl []string
	for _, w := range f.Workloads {
		checkName(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads %v, want %v", wl, workloadNames)
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, spec has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		s := endToEnd[i]
		checkName(m.Name)
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must lead the end-to-end metrics")
	}
	for _, s := range endToEnd {
		if s.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", s.Name)
		}
	}

	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, spec has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		s := perLayer[i]
		checkName(m.Name)
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, spec %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q", m.Name, m.Unit)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return len(a) == len(b)
}
