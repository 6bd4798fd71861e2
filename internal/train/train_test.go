package train

import (
	"math"
	"runtime"
	"testing"

	"convmeter/internal/exec"
	"convmeter/internal/graph"
	"convmeter/internal/models"
	"convmeter/internal/obs"
	"convmeter/internal/testrace"
)

// trainNet builds a small trainable CNN (3 classes).
func trainNet(t *testing.T) *graph.Graph {
	t.Helper()
	b, x := graph.NewBuilder("trainnet", graph.Shape{C: 2, H: 8, W: 8})
	x = b.Conv(x, "conv1", 4, 3, 1, 1)
	x = b.ReLU(x, "relu1")
	x = b.MaxPool2d(x, "pool", 2, 2, 0)
	x = b.Conv(x, "conv2", 8, 3, 1, 1)
	x = b.ReLU(x, "relu2")
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "flat")
	x = b.Linear(x, "fc", 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDataParallelLearns(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DataParallel(g, Config{Workers: 4, LR: 0.1, Seed: 7}, 25, task.Source(8))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first*0.5 {
		t.Fatalf("data-parallel training did not learn: loss %g -> %g", first, last)
	}
}

func TestReplicasStaySynchronised(t *testing.T) {
	// The core data-parallel invariant the paper's model relies on:
	// identical initialisation + all-reduced gradients keep every replica
	// identical.
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DataParallel(g, Config{Workers: 8, LR: 0.05, Seed: 9}, 10, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Checksums); i++ {
		if res.Checksums[i] != res.Checksums[0] {
			t.Fatalf("replica %d diverged: %g vs %g", i, res.Checksums[i], res.Checksums[0])
		}
	}
}

func TestDataParallelMatchesLargeBatch(t *testing.T) {
	// 2 workers × batch 4 must compute (numerically almost) the same
	// update as 1 worker × batch 8 on the concatenated data — the
	// weak-scaling equivalence distributed data parallelism is built on.
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard := task.Source(4)
	// Single-worker source concatenating both shards of step `step`.
	combined := func(worker, step int) (Batch, error) {
		a, err := shard(0, step)
		if err != nil {
			return Batch{}, err
		}
		b, err := shard(1, step)
		if err != nil {
			return Batch{}, err
		}
		in := exec.NewTensor(8, a.Input.Shape)
		copy(in.Data[:len(a.Input.Data)], a.Input.Data)
		copy(in.Data[len(a.Input.Data):], b.Input.Data)
		return Batch{Input: in, Labels: append(append([]int{}, a.Labels...), b.Labels...)}, nil
	}
	parallel, err := DataParallel(g, Config{Workers: 2, LR: 0.05, Seed: 11}, 5, shard)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := DataParallel(g, Config{Workers: 1, LR: 0.05, Seed: 11}, 5, combined)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(parallel.Checksums[0] - mono.Checksums[0]); diff > 1e-2*math.Abs(mono.Checksums[0]) {
		t.Fatalf("2×4 and 1×8 training diverged: %g vs %g", parallel.Checksums[0], mono.Checksums[0])
	}
	// Per-step mean losses must agree closely too.
	for i := range parallel.Losses {
		if rel := math.Abs(parallel.Losses[i]-mono.Losses[i]) / mono.Losses[i]; rel > 0.02 {
			t.Fatalf("step %d loss mismatch: %g vs %g", i, parallel.Losses[i], mono.Losses[i])
		}
	}
}

func TestDataParallelAdamLearnsAndStaysSynchronised(t *testing.T) {
	// The paper trains with Adam; the real trainer must support it with
	// the same invariants: learning progress and bit-identical replicas
	// (Adam moments are part of the replicated state).
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DataParallel(g, Config{Workers: 4, LR: 0.01, Optimizer: Adam, Seed: 3}, 25, task.Source(8))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first*0.6 {
		t.Fatalf("Adam training did not learn: %g -> %g", first, last)
	}
	for i := 1; i < len(res.Checksums); i++ {
		if res.Checksums[i] != res.Checksums[0] {
			t.Fatalf("Adam replica %d diverged", i)
		}
	}
}

func TestAdamDiffersFromSGD(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	sgd, err := DataParallel(g, Config{Workers: 2, LR: 0.01, Seed: 4}, 5, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	adam, err := DataParallel(g, Config{Workers: 2, LR: 0.01, Optimizer: Adam, Seed: 4}, 5, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	if sgd.Checksums[0] == adam.Checksums[0] {
		t.Fatal("Adam and SGD produced identical weights — optimizer switch inert")
	}
}

func TestDataParallelValidation(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := task.Source(2)
	if _, err := DataParallel(g, Config{Workers: 0, LR: 0.1, Seed: 1}, 1, src); err == nil {
		t.Fatal("expected worker-count error")
	}
	if _, err := DataParallel(g, Config{Workers: 1, LR: 0, Seed: 1}, 1, src); err == nil {
		t.Fatal("expected learning-rate error")
	}
	if _, err := DataParallel(g, Config{Workers: 1, LR: 0.1, Seed: 1}, 0, src); err == nil {
		t.Fatal("expected step-count error")
	}
	if _, err := DataParallel(g, Config{Workers: 1, LR: 0.1, Seed: 1}, 1, task.Source(0)); err == nil {
		t.Fatal("expected batch error from source")
	}
}

func TestPrototypeTaskValidation(t *testing.T) {
	g := trainNet(t)
	if _, err := NewPrototypeTask(g, 1, 0.3, 1); err == nil {
		t.Fatal("expected class-count error")
	}
}

// TestTransportTCPCarriesGradients: a TCP run must reduce its gradients
// over the sockets even with no fault injector or op deadline, and, two
// workers summing in either order, train bit for bit like the channel
// ring.
func TestTransportTCPCarriesGradients(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	tcp, err := DataParallel(g, Config{Workers: 2, LR: 0.1, Seed: 7, Transport: TransportTCP, Obs: o}, 4, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	if sent := o.Counter(obs.Label("convmeter_allreduce_tcp_bytes_total", "dir", "sent"), "").Value(); sent <= 0 {
		t.Fatalf("TCP run sent %g bytes over the ring sockets", sent)
	}
	ch, err := DataParallel(g, Config{Workers: 2, LR: 0.1, Seed: 7}, 4, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ch.Losses {
		if math.Float64bits(tcp.Losses[i]) != math.Float64bits(ch.Losses[i]) {
			t.Fatalf("step %d: TCP loss %g, channel loss %g", i, tcp.Losses[i], ch.Losses[i])
		}
	}
	for i := range ch.Checksums {
		if math.Float64bits(tcp.Checksums[i]) != math.Float64bits(ch.Checksums[i]) {
			t.Fatalf("replica %d: TCP checksum %g, channel checksum %g", i, tcp.Checksums[i], ch.Checksums[i])
		}
	}
}

// TestStepAllocatesLessThanOneGradientVector pins the steady-state
// allocation of a training step in perfbench's train shape (squeezenet1_1
// at 32×32, 2 workers × batch 2, SGD, the channel ring): the gradients
// accumulate into each replica's persistent vector, the ring reduces it
// in place without send copies and the update reads it in place, so a
// step allocates less than one gradient vector (4·W bytes). What it does
// allocate is the batch and the activations.
func TestStepAllocatesLessThanOneGradientVector(t *testing.T) {
	testrace.SkipIfRace(t)

	g, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewPrototypeTask(g, 10, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(g, Config{Workers: 2, LR: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := task.Source(2)
	step := func() {
		if _, err := tr.Step(src); err != nil {
			t.Fatal(err)
		}
	}
	step() // the first step allocates the gradient vectors
	const steps = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	if limit := 4 * uint64(g.TotalParams()); perStep >= limit {
		t.Errorf("a step allocates %d bytes, want < %d (one gradient vector)", perStep, limit)
	}
}
