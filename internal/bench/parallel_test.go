package bench

import (
	"errors"
	"sync/atomic"
	"testing"

	"convmeter/internal/hwsim"
)

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := deriveSeed(1, "inference", "resnet18", "64")
	b := deriveSeed(1, "inference", "resnet18", "64")
	if a != b {
		t.Fatal("deriveSeed must be deterministic")
	}
	if a < 0 {
		t.Fatal("derived seed must be non-negative")
	}
	others := []int64{
		deriveSeed(2, "inference", "resnet18", "64"),
		deriveSeed(1, "training", "resnet18", "64"),
		deriveSeed(1, "inference", "resnet50", "64"),
		deriveSeed(1, "inference", "resnet18", "128"),
	}
	for i, o := range others {
		if o == a {
			t.Fatalf("variant %d collided with base seed", i)
		}
	}
	// Concatenation ambiguity must not collide thanks to separators.
	if deriveSeed(1, "ab", "c") == deriveSeed(1, "a", "bc") {
		t.Fatal("part-boundary collision")
	}
}

func TestRunParallelExecutesAllTasks(t *testing.T) {
	var count int64
	hits := make([]int64, 100)
	err := RunParallel(100, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&hits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d tasks, want 100", count)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	wantErr := errors.New("boom")
	err := RunParallel(50, func(i int) error {
		if i == 17 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestRunParallelZeroTasks(t *testing.T) {
	if err := RunParallel(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero tasks must be a no-op")
	}
}

func TestParallelSweepBitIdenticalToItself(t *testing.T) {
	// The worker pool must not perturb results: two runs of the same
	// scenario are byte-identical regardless of scheduling.
	sc := InferenceScenario{
		Device:     hwsim.A100(),
		Models:     PaperModels()[:6],
		Images:     []int{64, 128},
		Batches:    []int{1, 8, 64},
		NoiseSigma: 0.08,
		Seed:       99,
	}
	a, err := CollectInference(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectInference(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between runs", i)
		}
	}
}

func TestParallelTrainingDeterministic(t *testing.T) {
	sc := DefaultDistributedScenario(7)
	sc.Models = sc.Models[:4]
	sc.Images = []int{64}
	sc.Batches = []int{16}
	a, err := CollectTraining(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectTraining(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training sample %d differs between runs", i)
		}
	}
}

func TestParallelBlocksDeterministic(t *testing.T) {
	sc := DefaultBlockScenario(11)
	sc.Batches = []int{1, 16}
	a, err := CollectBlocks(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectBlocks(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("block sample %d differs between runs", i)
		}
	}
}
