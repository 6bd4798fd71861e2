package convmeter

import (
	"bytes"
	"testing"
)

func TestFacadeEndToEndInference(t *testing.T) {
	g, err := BuildModel("resnet50", 224)
	if err != nil {
		t.Fatal(err)
	}
	met, err := MetricsOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if met.Weights != 25557032 {
		t.Fatalf("resnet50 weights = %g", met.Weights)
	}
	sc := DefaultInferenceScenario(A100(), 1)
	sc.Models = []string{"resnet18", "mobilenet_v2", "vgg11", "alexnet"}
	sc.Images = []int{64, 128}
	sc.Batches = []int{1, 8, 64}
	samples, err := CollectInference(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitInference(samples)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(met, 64)
	if pred <= 0 || pred > 10 {
		t.Fatalf("implausible prediction %g s", pred)
	}
}

func TestFacadeTrainingAndScalability(t *testing.T) {
	sc := DefaultDistributedScenario(2)
	sc.Models = []string{"resnet18", "resnet50", "mobilenet_v2", "alexnet"}
	sc.Images = []int{128}
	sc.Batches = []int{16, 64}
	samples, err := CollectTraining(sc)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildModel("efficientnet_b0", 128)
	if err != nil {
		t.Fatal(err)
	}
	met, err := MetricsOf(g)
	if err != nil {
		t.Fatal(err)
	}
	p1 := tm.PredictThroughput(met, 64, 4, 1)
	p8 := tm.PredictThroughput(met, 64, 32, 8)
	if p8 <= p1 {
		t.Fatalf("throughput should grow with nodes: %g vs %g", p1, p8)
	}
	tp, err := tm.TurningPoint(met, 64, 4, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if tp < 1 {
		t.Fatalf("turning point %d", tp)
	}
}

func TestFacadeCSVAndLOMO(t *testing.T) {
	sc := DefaultInferenceScenario(XeonCore(), 3)
	sc.Models = []string{"resnet18", "squeezenet1_1", "mobilenet_v2"}
	sc.Images = []int{64}
	sc.Batches = []int{1, 8}
	samples, err := CollectInference(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateInferenceLOMO(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.PerModel) != 3 {
		t.Fatalf("PerModel = %d", len(ev.PerModel))
	}
}

func TestFacadeBlocksAndExperiments(t *testing.T) {
	if len(BlockNames()) != 9 {
		t.Fatalf("blocks = %d", len(BlockNames()))
	}
	info, err := Block("MBConv")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildBlock("MBConv", info.NaturalHW)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalParams() <= 0 {
		t.Fatal("block without params")
	}
	res, err := RunExperiment("fig2", ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig2" || res.Text == "" {
		t.Fatal("experiment result malformed")
	}
}

func TestRunAllExperiments(t *testing.T) {
	res, err := RunAllExperiments(ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := ExperimentIDs()
	if len(res) != len(ids) {
		t.Fatalf("%d results, want one per experiment (%d)", len(res), len(ids))
	}
	for i, id := range ids {
		if res[i].ID != id {
			t.Errorf("result %d is %q, want %q", i, res[i].ID, id)
		}
	}
}

func TestFacadeGraphBuilder(t *testing.T) {
	b, x := NewGraph("custom", Shape{C: 3, H: 32, W: 32})
	x = b.Conv(x, "c1", 16, 3, 1, 1)
	x = b.ReLU(x, "r1")
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "fl")
	x = b.Linear(x, "fc", 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	met, err := MetricsOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if met.Layers != 2 {
		t.Fatalf("custom net layers = %g", met.Layers)
	}
}

func TestFacadeSimulatorAccess(t *testing.T) {
	sim, err := NewTrainSimulator(A100(), Cluster(), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildModel("resnet18", 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.TrainStepExact(g, 16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iter <= 0 {
		t.Fatal("zero step time")
	}
}
