package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenQuickSeed1 is the committed text of the 13 simulated experiments
// at quickCfg, shared with the perfbench reproduce workload, which
// checks the same bytes on every run.
var goldenQuickSeed1 = filepath.Join("..", "..", "cmd", "perfbench", "testdata", "reproduce_quick_seed1.txt")

// wallClockIDs are the experiments whose text carries measured
// wall-clock values and so cannot be pinned byte for byte.
var wallClockIDs = map[string]bool{"extreal": true, "exttrainreal": true, "exttrainfaults": true}

// renderGolden renders results as the golden file does: every table,
// every headline statistic with all its digits, and every data series.
func renderGolden(res []*Result) string {
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
		for _, k := range sortedKeys(r.Stats) {
			fmt.Fprintf(&sb, "stat %s = %s\n", k, strconv.FormatFloat(r.Stats[k], 'g', -1, 64))
		}
		for _, k := range sortedKeys(r.Series) {
			fmt.Fprintf(&sb, "series %s\n%s", k, r.Series[k])
		}
	}
	return sb.String()
}

// TestGoldenReproduction pins the reproduced numbers: the simulated
// experiments must render byte-identical to the committed golden, both
// through the DAG executor and one experiment at a time.
func TestGoldenReproduction(t *testing.T) {
	want, err := os.ReadFile(goldenQuickSeed1)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, id := range IDs() {
		if !wallClockIDs[id] {
			ids = append(ids, id)
		}
	}
	if len(ids) != 13 {
		t.Fatalf("%d simulated experiments, want 13: %v", len(ids), ids)
	}

	dag, _, err := RunDAG(ids, quickCfg, DagConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var flat []*Result
	for _, id := range ids {
		res, err := Run(id, quickCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		flat = append(flat, res)
	}
	for _, c := range []struct {
		path string
		res  []*Result
	}{{"RunDAG", dag}, {"Run", flat}} {
		if got := renderGolden(c.res); got != string(want) {
			t.Errorf("%s output differs from %s (%d vs %d bytes); first difference at byte %d",
				c.path, goldenQuickSeed1, len(got), len(want), firstDiff(got, string(want)))
		}
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
