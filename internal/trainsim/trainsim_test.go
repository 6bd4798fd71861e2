package trainsim

import (
	"math"
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
)

func newSim(t *testing.T, noise, commNoise float64) *Simulator {
	t.Helper()
	s, err := New(Config{
		Device:         hwsim.A100(),
		Fabric:         netsim.Cluster(),
		NoiseSigma:     noise,
		CommNoiseSigma: commNoise,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func build(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := models.Build(name, 128)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrainStepPhasesSumToIter(t *testing.T) {
	s := newSim(t, 0, 0)
	g := build(t, "resnet50")
	p, err := s.TrainStepExact(g, 32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fwd <= 0 || p.Bwd <= 0 || p.Grad <= 0 {
		t.Fatalf("non-positive phase: %+v", p)
	}
	if math.Abs(p.Iter-(p.Fwd+p.Bwd+p.Grad)) > 1e-12 {
		t.Fatalf("Iter %g != sum of phases", p.Iter)
	}
	if p.Bwd <= p.Fwd {
		t.Fatal("backward should exceed forward")
	}
}

func TestSingleDeviceGradIsOptimizerOnly(t *testing.T) {
	// With one device there is no ring to traverse; grad time is the
	// optimizer pass plus per-bucket overheads, far below compute.
	s := newSim(t, 0, 0)
	g := build(t, "resnet50")
	p, err := s.TrainStepExact(g, 32, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Grad >= p.Bwd/2 {
		t.Fatalf("single-device grad %g implausibly large vs bwd %g", p.Grad, p.Bwd)
	}
}

func TestGradGrowsWithNodes(t *testing.T) {
	s := newSim(t, 0, 0)
	g := build(t, "resnet50")
	prev := -1.0
	for _, nodes := range []int{1, 2, 4, 8} {
		p, err := s.TrainStepExact(g, 16, nodes*4, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if nodes > 1 && p.Grad <= prev {
			t.Fatalf("grad should grow with nodes at %d: %g <= %g", nodes, p.Grad, prev)
		}
		prev = p.Grad
	}
}

func TestFwdBwdIndependentOfNodes(t *testing.T) {
	// Compute phases depend only on the per-device batch.
	s := newSim(t, 0, 0)
	g := build(t, "resnet18")
	p1, err := s.TrainStepExact(g, 32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.TrainStepExact(g, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fwd != p2.Fwd || p1.Bwd != p2.Bwd {
		t.Fatal("fwd/bwd must not depend on cluster size at fixed per-device batch")
	}
}

func TestLargeBatchHidesCommunication(t *testing.T) {
	// The paper: communication overhead is relatively smaller for larger
	// per-device batches, so grad share of the step shrinks.
	s := newSim(t, 0, 0)
	g := build(t, "resnet50")
	small, err := s.TrainStepExact(g, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.TrainStepExact(g, 128, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Grad/small.Iter <= large.Grad/large.Iter {
		t.Fatalf("grad share should shrink with batch: small %g, large %g",
			small.Grad/small.Iter, large.Grad/large.Iter)
	}
}

func TestAlexNetCommunicationHeavy(t *testing.T) {
	// AlexNet has few FLOPs but 61 M parameters: in multi-node training
	// its gradient phase must dominate far more than ResNet-50's — the
	// cause of its early scaling saturation in Fig. 8.
	s := newSim(t, 0, 0)
	alex := build(t, "alexnet")
	rn := build(t, "resnet50")
	pa, err := s.TrainStepExact(alex, 64, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.TrainStepExact(rn, 64, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Grad/pa.Iter <= pr.Grad/pr.Iter {
		t.Fatalf("alexnet grad share %g should exceed resnet50 %g",
			pa.Grad/pa.Iter, pr.Grad/pr.Iter)
	}
}

func TestTrainStepErrors(t *testing.T) {
	s := newSim(t, 0, 0)
	g := build(t, "resnet18")
	cases := []struct {
		name                  string
		batch, devices, nodes int
	}{
		{"zero batch", 0, 1, 1},
		{"zero devices", 8, 0, 1},
		{"zero nodes", 8, 4, 0},
		{"uneven split", 8, 6, 4},
		{"over capacity", 8, 16, 2},
	}
	for _, c := range cases {
		if _, err := s.TrainStepExact(g, c.batch, c.devices, c.nodes); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Device: hwsim.A100(), Fabric: netsim.Fabric{}}); err == nil {
		t.Fatal("invalid fabric must be rejected")
	}
	if _, err := New(Config{Device: hwsim.A100(), Fabric: netsim.Cluster(), NoiseSigma: -1}); err == nil {
		t.Fatal("negative noise must be rejected")
	}
	if _, err := New(Config{Device: hwsim.A100(), Fabric: netsim.Cluster(), FusionBytes: -5}); err == nil {
		t.Fatal("negative fusion buffer must be rejected")
	}
}

func TestNoiseSeededAndScoped(t *testing.T) {
	g := build(t, "resnet18")
	a := newSim(t, 0.05, 0.15)
	b := newSim(t, 0.05, 0.15)
	pa, err := a.TrainStep(g, 16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.TrainStep(g, 16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatal("same seed must reproduce measurements")
	}
	exact, _ := a.TrainStepExact(g, 16, 8, 2)
	if pa.Fwd == exact.Fwd && pa.Bwd == exact.Bwd && pa.Grad == exact.Grad {
		t.Fatal("noise should perturb the phases")
	}
	if math.Abs(pa.Iter-(pa.Fwd+pa.Bwd+pa.Grad)) > 1e-12 {
		t.Fatal("noisy Iter must remain the sum of noisy phases")
	}
}

func TestThroughput(t *testing.T) {
	p := Phases{Iter: 0.5}
	if got := Throughput(p, 64, 8); got != 1024 {
		t.Fatalf("Throughput = %g, want 1024", got)
	}
	if Throughput(Phases{}, 64, 8) != 0 {
		t.Fatal("zero iter must yield zero throughput")
	}
}

func TestThroughputScalingShape(t *testing.T) {
	// Weak scaling must increase total throughput with more nodes but at
	// diminishing per-node efficiency.
	s := newSim(t, 0, 0)
	g := build(t, "resnet50")
	var tput []float64
	for _, nodes := range []int{1, 2, 4, 8} {
		p, err := s.TrainStepExact(g, 64, nodes*4, nodes)
		if err != nil {
			t.Fatal(err)
		}
		tput = append(tput, Throughput(p, 64, nodes*4))
	}
	for i := 1; i < len(tput); i++ {
		if tput[i] <= tput[i-1] {
			t.Fatalf("throughput should still grow at step %d: %v", i, tput)
		}
	}
	// Efficiency at 8 nodes must be below 100% of linear scaling.
	if eff := tput[3] / (tput[0] * 8); eff >= 1.0 {
		t.Fatalf("8-node efficiency = %g, want < 1", eff)
	}
}

func TestFusionBufferAblation(t *testing.T) {
	// A tiny fusion buffer means many small all-reduces (per-tensor
	// overhead dominates); a huge buffer means one big late all-reduce
	// (no overlap). Horovod's 64 MiB default should beat the tiny buffer.
	g := build(t, "resnet50")
	mk := func(fusion float64) Phases {
		s, err := New(Config{Device: hwsim.A100(), Fabric: netsim.Cluster(), FusionBytes: fusion, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.TrainStepExact(g, 32, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tiny := mk(1 << 10)
	def := mk(DefaultFusionBytes)
	if def.Grad >= tiny.Grad {
		t.Fatalf("default fusion (%g) should beat 1 KiB buckets (%g)", def.Grad, tiny.Grad)
	}
}

func TestFitsDelegates(t *testing.T) {
	s := newSim(t, 0, 0)
	g := build(t, "resnet18")
	if !s.Fits(g, 8) {
		t.Fatal("small batch must fit")
	}
	if s.Fits(g, 1<<22) {
		t.Fatal("absurd batch must not fit")
	}
}
