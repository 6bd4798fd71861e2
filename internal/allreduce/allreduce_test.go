package allreduce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeVectors builds n random vectors of the given length plus their
// elementwise sum as the expected result.
func makeVectors(n, length int, seed int64) (vectors [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	want = make([]float32, length)
	for i := 0; i < n; i++ {
		v := make([]float32, length)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
			want[j] += v[j]
		}
		vectors = append(vectors, v)
	}
	return vectors, want
}

func checkAllEqualSum(t *testing.T, vectors [][]float32, want []float32) {
	t.Helper()
	for i, v := range vectors {
		for j := range v {
			if math.Abs(float64(v[j]-want[j])) > 1e-3*math.Max(1, math.Abs(float64(want[j]))) {
				t.Fatalf("worker %d elem %d = %g, want %g", i, j, v[j], want[j])
			}
		}
	}
}

func TestRingSmall(t *testing.T) {
	vectors := [][]float32{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{100, 200, 300, 400},
	}
	want := []float32{111, 222, 333, 444}
	if err := Ring(vectors); err != nil {
		t.Fatal(err)
	}
	checkAllEqualSum(t, vectors, want)
}

func TestRingVariousTopologies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, length := range []int{1, 3, 16, 1000, 1021} {
			vectors, want := makeVectors(n, length, int64(n*10000+length))
			if err := Ring(vectors); err != nil {
				t.Fatalf("n=%d len=%d: %v", n, length, err)
			}
			checkAllEqualSum(t, vectors, want)
		}
	}
}

func TestRingLengthShorterThanWorkers(t *testing.T) {
	// 8 workers, 3 elements: most chunks are empty — must still work.
	vectors, want := makeVectors(8, 3, 5)
	if err := Ring(vectors); err != nil {
		t.Fatal(err)
	}
	checkAllEqualSum(t, vectors, want)
}

func TestRingErrors(t *testing.T) {
	if err := Ring(nil); err == nil {
		t.Fatal("expected no-workers error")
	}
	if err := Ring([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestRingSingleWorkerNoOp(t *testing.T) {
	v := [][]float32{{1, 2, 3}}
	if err := Ring(v); err != nil {
		t.Fatal(err)
	}
	if v[0][0] != 1 || v[0][2] != 3 {
		t.Fatal("single-worker ring must not modify the vector")
	}
}

func TestChunkBoundsTiling(t *testing.T) {
	f := func(rawN, rawP uint8) bool {
		n := int(rawN)
		p := int(rawP%16) + 1
		prevEnd := 0
		total := 0
		for i := 0; i < p; i++ {
			a, b := chunkBounds(n, p, i)
			if a != prevEnd || b < a {
				return false
			}
			total += b - a
			prevEnd = b
		}
		return total == n && prevEnd == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
