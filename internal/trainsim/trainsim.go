// Package trainsim simulates full data-parallel training steps by
// combining the hardware execution model (hwsim) with the communication
// model (netsim): forward pass, backward pass, Horovod-style fused
// gradient all-reduce overlapped with the backward pass, and the Adam
// optimizer update. It produces the per-phase "measurements" the paper's
// training-time model is fitted against (Figures 5 and 7, Table 3).
package trainsim

import (
	"fmt"
	"math"
	"math/rand"

	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/netsim"
)

// DefaultFusionBytes is Horovod's default tensor-fusion buffer (64 MiB).
const DefaultFusionBytes = 64 << 20

// PerTensorFrameworkOverhead is the per-parameter-tensor cost of the
// framework's gradient bookkeeping during the update phase: Horovod's
// per-layer gradient hooks plus the optimizer's per-tensor kernel
// launches. It makes the single-device gradient phase scale with the
// layer count L — the structure the paper's T_grad = c1·L model relies
// on.
const PerTensorFrameworkOverhead = 1.8e-5

// Config assembles a training simulator.
type Config struct {
	Device hwsim.Device
	Fabric netsim.Fabric
	// FusionBytes is the gradient fusion buffer size; 0 selects
	// DefaultFusionBytes.
	FusionBytes float64
	// NoiseSigma is the log-normal measurement noise on compute phases.
	NoiseSigma float64
	// CommNoiseSigma is the (typically larger) noise on the gradient
	// phase when networking is involved — the paper observes much more
	// variance on multi-node measurements (§4.2.1).
	CommNoiseSigma float64
	Seed           int64
}

// Phases is the decomposition of one training step, in seconds,
// mirroring the paper's T_iter = T_fwd + T_bwd + T_grad.
type Phases struct {
	Fwd  float64 // forward pass
	Bwd  float64 // backward pass compute
	Grad float64 // exposed gradient synchronisation + optimizer update
	Iter float64 // total step time
}

// Simulator produces training-step measurements.
type Simulator struct {
	cfg Config
	hw  *hwsim.Simulator
	rng *rand.Rand
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.FusionBytes == 0 {
		cfg.FusionBytes = DefaultFusionBytes
	}
	if cfg.FusionBytes < 0 {
		return nil, fmt.Errorf("trainsim: negative fusion buffer %g", cfg.FusionBytes)
	}
	if cfg.NoiseSigma < 0 || cfg.CommNoiseSigma < 0 {
		return nil, fmt.Errorf("trainsim: negative noise sigma")
	}
	if err := cfg.Fabric.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{
		cfg: cfg,
		hw:  hwsim.NewSimulator(cfg.Device, 0, cfg.Seed+1),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Hardware exposes the underlying (noise-free) hardware simulator.
func (s *Simulator) Hardware() *hwsim.Simulator { return s.hw }

// checkTopology validates a device/node combination against the fabric.
func (s *Simulator) checkTopology(devices, nodes int) error {
	if devices <= 0 || nodes <= 0 {
		return fmt.Errorf("trainsim: devices=%d nodes=%d", devices, nodes)
	}
	if devices%nodes != 0 {
		return fmt.Errorf("trainsim: %d devices do not divide evenly over %d nodes", devices, nodes)
	}
	if devices/nodes > s.cfg.Fabric.GPUsPerNode {
		return fmt.Errorf("trainsim: %d GPUs per node exceeds fabric capacity %d",
			devices/nodes, s.cfg.Fabric.GPUsPerNode)
	}
	return nil
}

// gradientBuckets replays the backward pass in reverse layer order and
// groups parameter gradients into fusion-buffer-sized buckets, each
// stamped with the backward-pass time at which it becomes ready.
func (s *Simulator) gradientBuckets(g *graph.Graph, batch int) []netsim.Bucket {
	layerTimes := s.hw.BackwardLayerTimes(g, batch) // reverse execution order
	var buckets []netsim.Bucket
	elapsed := 0.0
	pending := 0.0
	for idx, lt := range layerTimes {
		elapsed += lt
		node := g.Nodes[len(g.Nodes)-1-idx]
		if p := node.Op.Params(); p > 0 {
			pending += float64(p) * hwsim.BytesPerElem
		}
		if pending >= s.cfg.FusionBytes {
			buckets = append(buckets, netsim.Bucket{Bytes: pending, ReadyAt: elapsed})
			pending = 0
		}
	}
	if pending > 0 {
		buckets = append(buckets, netsim.Bucket{Bytes: pending, ReadyAt: elapsed})
	}
	return buckets
}

// optimizerTime models the Adam update: an elementwise pass over the
// weights touching parameter, gradient and two moment tensors (≈7 memory
// accesses per parameter), bandwidth bound, launched as one kernel per
// parameter tensor — which is why the single-device gradient phase scales
// with the layer count L, the structure the paper's T_grad = c1·L model
// exploits.
func (s *Simulator) optimizerTime(g *graph.Graph) float64 {
	w := float64(g.TotalParams())
	launches := float64(g.ParamLayers())
	return w*hwsim.BytesPerElem*7/s.cfg.Device.MemBW +
		launches*(s.cfg.Device.KernelOverhead+PerTensorFrameworkOverhead)
}

// TrainStepExact returns the noise-free phase decomposition of one
// training step with batchPerDevice images on each of devices GPUs spread
// over nodes.
func (s *Simulator) TrainStepExact(g *graph.Graph, batchPerDevice, devices, nodes int) (Phases, error) {
	if batchPerDevice <= 0 {
		return Phases{}, fmt.Errorf("trainsim: non-positive batch %d", batchPerDevice)
	}
	if err := s.checkTopology(devices, nodes); err != nil {
		return Phases{}, err
	}
	fwd := s.hw.ForwardExact(g, batchPerDevice)
	bwd := s.hw.BackwardExact(g, batchPerDevice)
	buckets := s.gradientBuckets(g, batchPerDevice)
	_, exposed, err := s.cfg.Fabric.OverlapTimeline(buckets, devices, nodes, bwd)
	if err != nil {
		return Phases{}, err
	}
	grad := exposed + s.optimizerTime(g)
	return Phases{Fwd: fwd, Bwd: bwd, Grad: grad, Iter: fwd + bwd + grad}, nil
}

// noisy applies one log-normal draw with the given sigma.
func (s *Simulator) noisy(t, sigma float64) float64 {
	if sigma == 0 {
		return t
	}
	return t * math.Exp(s.rng.NormFloat64()*sigma)
}

// TrainStep returns a noisy training-step measurement. Compute phases use
// NoiseSigma; the gradient phase uses CommNoiseSigma when more than one
// device participates (network jitter), otherwise NoiseSigma.
func (s *Simulator) TrainStep(g *graph.Graph, batchPerDevice, devices, nodes int) (Phases, error) {
	p, err := s.TrainStepExact(g, batchPerDevice, devices, nodes)
	if err != nil {
		return Phases{}, err
	}
	gradSigma := s.cfg.NoiseSigma
	if devices > 1 {
		gradSigma = s.cfg.CommNoiseSigma
	}
	p.Fwd = s.noisy(p.Fwd, s.cfg.NoiseSigma)
	p.Bwd = s.noisy(p.Bwd, s.cfg.NoiseSigma)
	p.Grad = s.noisy(p.Grad, gradSigma)
	p.Iter = p.Fwd + p.Bwd + p.Grad
	return p, nil
}

// TimelineEvent is one span of a simulated training step, suitable for
// trace visualisation (see the tracefmt package). Track 0 is compute,
// track 1 the communication link.
type TimelineEvent struct {
	Name       string
	Track      int
	Start, Dur float64 // seconds from the start of the step
}

// Timeline reconstructs the noise-free schedule of one training step:
// the forward span, the backward span, every fused gradient bucket's
// all-reduce on the link (overlapping the backward pass), and the
// optimizer update — the structure of the paper's Figure 1.
func (s *Simulator) Timeline(g *graph.Graph, batchPerDevice, devices, nodes int) ([]TimelineEvent, Phases, error) {
	p, err := s.TrainStepExact(g, batchPerDevice, devices, nodes)
	if err != nil {
		return nil, Phases{}, err
	}
	events := []TimelineEvent{
		{Name: "forward", Track: 0, Start: 0, Dur: p.Fwd},
		{Name: "backward", Track: 0, Start: p.Fwd, Dur: p.Bwd},
	}
	buckets := s.gradientBuckets(g, batchPerDevice)
	comm, err := s.cfg.Fabric.Schedule(buckets, devices, nodes)
	if err != nil {
		return nil, Phases{}, err
	}
	commEnd := 0.0
	for _, c := range comm {
		events = append(events, TimelineEvent{
			Name:  fmt.Sprintf("allreduce bucket %d (%.1f MiB)", c.Bucket, c.Bytes/(1<<20)),
			Track: 1, Start: p.Fwd + c.Start, Dur: c.End - c.Start,
		})
		if c.End > commEnd {
			commEnd = c.End
		}
	}
	optStart := p.Fwd + p.Bwd
	if p.Fwd+commEnd > optStart {
		optStart = p.Fwd + commEnd
	}
	events = append(events, TimelineEvent{
		Name: "optimizer", Track: 0, Start: optStart, Dur: s.optimizerTime(g),
	})
	return events, p, nil
}

// Throughput converts a step time into images per second across the
// whole cluster — the metric of the paper's scalability figures (8, 9).
func Throughput(p Phases, batchPerDevice, devices int) float64 {
	if p.Iter <= 0 {
		return 0
	}
	return float64(batchPerDevice*devices) / p.Iter
}

// Fits reports whether training the graph at the given per-device batch
// fits into device memory.
func (s *Simulator) Fits(g *graph.Graph, batchPerDevice int) bool {
	return s.hw.Fits(g, batchPerDevice, true)
}
