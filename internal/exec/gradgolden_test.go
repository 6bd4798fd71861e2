package exec

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/models"
)

// gradientHash runs Gradients on the executor's seeded random input and
// returns the FNV-64a hash of the gradient vector's bits in order: node
// by node in graph order, W before B.
func gradientHash(t *testing.T, g *graph.Graph, seed int64, labels []int) uint64 {
	t.Helper()
	e, err := NewExecutor(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(len(labels))
	if err != nil {
		t.Fatal(err)
	}
	_, grads, err := e.Gradients(in, labels)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range grads {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestRealGradientsGolden pins the bits of every real gradient on two
// networks: squeezenet1_1, the data-parallel training model, and
// mobileStyleNet, which adds depthwise, SE, hard-swish and shuffle ops.
// The hashes were recorded with the direct backward kernel, so any
// backward route that changes one bit of one gradient fails here. They
// were recorded on amd64; where the compiler fuses a multiply and an add
// into one rounding, as the Go spec allows, the bits may differ.
func TestRealGradientsGolden(t *testing.T) {
	sq, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		labels []int
		want   uint64
	}{
		{"squeezenet1_1", sq, []int{3, 7}, 0x8e77626edfd22d12},
		{"mobileStyleNet", mobileStyleNet(t), []int{0, 2}, 0xe319370d684c3190},
	} {
		if got := gradientHash(t, c.g, 1, c.labels); got != c.want {
			t.Errorf("%s: gradient hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
