package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/graph"
	"convmeter/internal/models"
)

// stepHash trains g for steps steps and returns an FNV-64a hash over
// everything a step produces: the step's loss bits, the bits of every
// live replica's weight checksum, and every live replica's logits on a
// fixed input (replica 0's seeded RandomInput at batch 1).
func stepHash(t *testing.T, g *graph.Graph, cfg Config, steps int, src DataSource) uint64 {
	t.Helper()
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := tr.replicas[0].RandomInput(1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	for s := 0; s < steps; s++ {
		loss, err := tr.Step(src)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		put(math.Float64bits(loss))
		for _, c := range tr.Checksums() {
			put(math.Float64bits(c))
		}
		for _, w := range tr.Live() {
			logits, err := tr.replicas[w].Run(probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range logits.Data {
				put(uint64(math.Float32bits(v)))
			}
		}
	}
	return h.Sum64()
}

// TestTrainStepGolden pins the bits of whole training steps, on the
// paths a step can take: perfbench's train shape (squeezenet1_1 at
// 32×32, 2 workers × batch 2, SGD, the fault-free channel ring), Adam
// on three workers, the resilient ring with an op deadline and no
// faults, and an elastic run in which worker 1 crashes at step 2. Any
// change to the forward, the backward, the ring, the averaging or the
// optimizer that moves one bit of one weight fails here. Like
// TestRealGradientsGolden the hashes were recorded on amd64.
func TestTrainStepGolden(t *testing.T) {
	sq, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	small := trainNet(t)
	task := func(g *graph.Graph, classes int, seed int64) *PrototypeTask {
		t.Helper()
		pt, err := NewPrototypeTask(g, classes, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	crash, err := faults.New(3, faults.Profile{Crashes: map[int]int{1: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Deadlines generous enough that a loaded host never retries: a
	// retry leaves the numbers alone, but a blamed worker would not.
	const deadline = 5 * time.Second
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		cfg   Config
		steps int
		src   DataSource
		want  uint64
	}{
		{"squeezenet1_1/sgd/chan", sq,
			Config{Workers: 2, LR: 0.01, Optimizer: SGD, Transport: TransportChan, Seed: 1},
			3, task(sq, 10, 1).Source(2), 0xbd15233136d08592},
		{"trainnet/adam/3w", small,
			Config{Workers: 3, LR: 0.01, Optimizer: Adam, Seed: 3},
			4, task(small, 3, 5).Source(4), 0x86ffb83bbd25460c},
		{"trainnet/sgd/resilient", small,
			Config{Workers: 3, LR: 0.05, Seed: 9, OpTimeout: deadline},
			4, task(small, 3, 2).Source(4), 0xaa7dd82d99c4f34f},
		{"trainnet/sgd/crash", small,
			Config{Workers: 3, LR: 0.1, Seed: 7, Faults: crash, OpTimeout: deadline},
			5, task(small, 3, 1).Source(4), 0x3a3b217ec77f6764},
	} {
		if got := stepHash(t, c.g, c.cfg, c.steps, c.src); got != c.want {
			t.Errorf("%s: step hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
