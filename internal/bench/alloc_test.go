package bench

import (
	"testing"

	"convmeter/internal/core"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/testrace"
)

// TestInferencePointZeroAllocs pins the allocation contract of the
// sweep's per-point inner loop, bench.inferencePoint: with the output
// slice preallocated to the batch-sweep length, measuring one point —
// the memory-fit check, the simulated forward pass over the whole graph
// (hwsim and the graph shape arena included), and the sample append —
// does not touch the heap.
func TestInferencePointZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	g, err := models.Build("resnet18", 64)
	if err != nil {
		t.Fatal(err)
	}
	met, err := metrics.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	bm := builtModel{g: g, met: met}
	sim := hwsim.NewSimulator(hwsim.A100(), 0.06, 1)
	out := make([]core.Sample, 0, 4)
	point := func() {
		out = out[:0]
		var kept bool
		if out, kept = inferencePoint(sim, bm, "resnet18", 64, 8, out); !kept {
			t.Fatal("resnet18@64 b8 must fit an A100")
		}
	}
	point() // warm the graph's lazily built shape arena
	if n := testing.AllocsPerRun(100, point); n != 0 {
		t.Errorf("inferencePoint allocates %.2f/op, want 0", n)
	}
}
