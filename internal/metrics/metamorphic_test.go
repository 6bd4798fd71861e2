package metrics

import (
	"encoding/json"
	"fmt"
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/models"
)

// wireNode mirrors one node of the graph JSON wire form.
type wireNode struct {
	Name   string          `json:"name"`
	Kind   string          `json:"kind"`
	Op     json.RawMessage `json:"op,omitempty"`
	Inputs []int           `json:"inputs,omitempty"`
}

// reorderGraphJSON rewrites a graph's JSON as another encoding of the
// same network: every node renamed, and the nodes re-emitted in the
// topological order that always takes the latest-emitted ready node,
// the input kept at node 0, with every inputs index remapped. It
// reports whether the order differs from the original.
func reorderGraphJSON(data []byte) ([]byte, bool, error) {
	var g struct {
		Name  string     `json:"name"`
		Nodes []wireNode `json:"nodes"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, false, err
	}
	n := len(g.Nodes)
	pending := make([]int, n) // unemitted producers per node
	consumers := make([][]int, n)
	for i, node := range g.Nodes {
		pending[i] = len(node.Inputs)
		for _, in := range node.Inputs {
			consumers[in] = append(consumers[in], i)
		}
	}
	order := []int{0}
	newID := make([]int, n)
	emitted := make([]bool, n)
	emitted[0] = true
	for _, c := range consumers[0] {
		pending[c]--
	}
	for len(order) < n {
		next := -1
		for i := n - 1; i > 0; i-- {
			if !emitted[i] && pending[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return nil, false, fmt.Errorf("graph %s: no ready node after %d of %d", g.Name, len(order), n)
		}
		newID[next] = len(order)
		order = append(order, next)
		emitted[next] = true
		for _, c := range consumers[next] {
			pending[c]--
		}
	}
	moved := false
	out := make([]wireNode, n)
	for pos, old := range order {
		node := g.Nodes[old]
		moved = moved || pos != old
		node.Name = fmt.Sprintf("renamed_%d_%s", pos, node.Kind)
		inputs := make([]int, len(node.Inputs))
		for j, in := range node.Inputs {
			inputs[j] = newID[in]
		}
		node.Inputs = inputs
		out[pos] = node
	}
	g.Nodes = out
	data, err := json.Marshal(g)
	return data, moved, err
}

// TestMetricsInvariantUnderRenameAndReorder is a metamorphic test of the
// analytical core: renaming every node of a zoo model and re-emitting
// its nodes in another valid topological order describes the same
// network, so FromGraph must give the same F, I, O, W and L. Each is a
// sum of integer per-node counts, exact in float64 at these sizes, so
// the comparison is exact.
func TestMetricsInvariantUnderRenameAndReorder(t *testing.T) {
	reordered := 0
	for _, name := range models.Names() {
		g, err := models.Build(name, 224)
		if err != nil {
			continue // a model that does not build at 224 px has no metrics to compare
		}
		want, err := FromGraph(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, moved, err := reorderGraphJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			reordered++
		}
		var h graph.Graph
		if err := json.Unmarshal(rewritten, &h); err != nil {
			t.Fatalf("%s: rewritten graph rejected: %v", name, err)
		}
		got, err := FromGraph(&h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.FLOPs != want.FLOPs || got.Inputs != want.Inputs || got.Outputs != want.Outputs ||
			got.Weights != want.Weights || got.Layers != want.Layers {
			t.Errorf("%s: renamed and reordered metrics %+v, want %+v", name, got, want)
		}
	}
	// A zoo of chains would leave nothing to reorder.
	if reordered == 0 {
		t.Fatal("no zoo model has a second topological order: the test reordered nothing")
	}
	t.Logf("%d of %d zoo models re-emitted in another order", reordered, len(models.Names()))
}
