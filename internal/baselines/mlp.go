package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// MLP is a small fully connected network with ReLU hidden layers and a
// linear output, trained by mini-batch SGD with momentum on mean squared
// error. It is the learned core of the DIPPM surrogate — implemented from
// scratch because the real DIPPM (a graph neural network trained for 500
// epochs on an A100 dataset) is not available; see DESIGN.md.
type MLP struct {
	sizes   []int
	weights [][]float64 // [layer][out*in]
	biases  [][]float64 // [layer][out]
	rng     *rand.Rand
}

// NewMLP creates a network with the given layer sizes (inputs first,
// single output last), He-initialised from the seed.
func NewMLP(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("baselines: MLP needs >=2 layer sizes, got %d", len(sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("baselines: non-positive layer size in %v", sizes)
		}
	}
	if sizes[len(sizes)-1] != 1 {
		return nil, fmt.Errorf("baselines: MLP output layer must have size 1, got %d", sizes[len(sizes)-1])
	}
	m := &MLP{sizes: sizes, rng: rand.New(rand.NewSource(seed))}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = m.rng.NormFloat64() * std
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m, nil
}

// newActs allocates the per-layer activation buffers forward writes
// into. acts[0] is left for the input row.
func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.sizes))
	for l := 1; l < len(m.sizes); l++ {
		acts[l] = make([]float64, m.sizes[l])
	}
	return acts
}

// forward runs the network on x into acts (sized by newActs), keeping
// every layer's activation for backprop, and returns the output. acts[0]
// becomes x. It allocates nothing.
func (m *MLP) forward(x []float64, acts [][]float64) float64 {
	acts[0] = x
	for l, w := range m.weights {
		in, cur, next := m.sizes[l], acts[l], acts[l+1]
		for o := range next {
			s := m.biases[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range cur {
				s += row[i] * v
			}
			if l < len(m.weights)-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			next[o] = s
		}
	}
	return acts[len(acts)-1][0]
}

// Predict evaluates the network on one feature vector.
func (m *MLP) Predict(x []float64) (float64, error) {
	if len(x) != m.sizes[0] {
		return 0, fmt.Errorf("baselines: input has %d features, MLP expects %d", len(x), m.sizes[0])
	}
	return m.forward(x, m.newActs()), nil
}

// zerosLike allocates zeroed buffers shaped like the weights and biases.
func (m *MLP) zerosLike() (w, b [][]float64) {
	w = make([][]float64, len(m.weights))
	b = make([][]float64, len(m.biases))
	for l := range m.weights {
		w[l] = make([]float64, len(m.weights[l]))
		b[l] = make([]float64, len(m.biases[l]))
	}
	return w, b
}

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs    int
	LR        float64
	Momentum  float64
	BatchSize int
}

// Train fits the network on (X, y) with mini-batch SGD. It returns the
// final epoch's mean squared error.
func (m *MLP) Train(X [][]float64, y []float64, cfg TrainConfig) (float64, error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("baselines: bad training set (%d inputs, %d targets)", len(X), len(y))
	}
	for i, x := range X {
		if len(x) != m.sizes[0] {
			return 0, fmt.Errorf("baselines: training row %d has %d features, want %d", i, len(x), m.sizes[0])
		}
	}
	if cfg.Epochs <= 0 || cfg.LR <= 0 || cfg.BatchSize <= 0 {
		return 0, fmt.Errorf("baselines: invalid train config %+v", cfg)
	}
	// Every buffer is made once per call: momentum, the per-batch
	// gradient accumulators, one activation per layer, and two delta
	// buffers that backprop ping-pongs between.
	vw, vb := m.zerosLike()
	gw, gb := m.zerosLike()
	acts := m.newActs()
	widest := slices.Max(m.sizes[1:])
	deltaA, deltaB := make([]float64, widest), make([]float64, widest)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	lastMSE := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sse := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			// Accumulate gradients over the mini-batch.
			for l := range gw {
				clear(gw[l])
				clear(gb[l])
			}
			for _, s := range batch {
				err := m.forward(X[s], acts) - y[s]
				sse += err * err
				// Backprop: delta at output is d(MSE)/d(pred).
				delta, spare := deltaA[:1], deltaB
				delta[0] = 2 * err
				for l := len(m.weights) - 1; l >= 0; l-- {
					in := m.sizes[l]
					prev := acts[l]
					for o, d := range delta {
						gb[l][o] += d
						row := gw[l][o*in : (o+1)*in]
						for i, p := range prev {
							row[i] += d * p
						}
					}
					if l == 0 {
						break
					}
					// nd[i] sums W[o][i]·d[o] over o ascending from +0, the
					// same additions in the same order as a per-column dot
					// product, walked row by row.
					nd := spare[:in]
					clear(nd)
					for o, d := range delta {
						row := m.weights[l][o*in : (o+1)*in]
						for i := range nd {
							nd[i] += row[i] * d
						}
					}
					for i, a := range acts[l] {
						if a <= 0 { // ReLU derivative
							nd[i] = 0
						}
					}
					delta, spare = nd, delta[:cap(delta)]
				}
			}
			scale := cfg.LR / float64(len(batch))
			for l := range m.weights {
				for i := range m.weights[l] {
					vw[l][i] = cfg.Momentum*vw[l][i] - scale*gw[l][i]
					m.weights[l][i] += vw[l][i]
				}
				for i := range m.biases[l] {
					vb[l][i] = cfg.Momentum*vb[l][i] - scale*gb[l][i]
					m.biases[l][i] += vb[l][i]
				}
			}
		}
		lastMSE = sse / float64(len(X))
	}
	return lastMSE, nil
}
