// Package bench generates the benchmark datasets ConvMeter's coefficients
// are fitted on, mirroring the paper's measurement campaign: sweeps over
// the ConvNet zoo, image sizes 32–224 px and batch sizes 1–2048 ("as long
// as the available memory on the target system allows"), collecting fewer
// than 5,000 data points per scenario. Measurements come from the
// hardware/training simulators (see DESIGN.md for the substitution).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"convmeter/internal/core"
	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/obs"
	"convmeter/internal/trainsim"
)

// MaxPointsPerScenario caps dataset sizes at the paper's "<5,000 points".
const MaxPointsPerScenario = 5000

// DefaultImages is the paper's image-size sweep (32 to 224 pixels).
func DefaultImages() []int { return []int{32, 64, 96, 128, 160, 192, 224} }

// DefaultBatches is the paper's batch-size sweep (1 to 2048, powers of
// two).
func DefaultBatches() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
}

// PaperModels is the representative ConvNet cross-section evaluated
// per-model in the paper's Tables 1 and 3.
func PaperModels() []string {
	return []string{
		"alexnet", "vgg11", "vgg16",
		"resnet18", "resnet50", "resnext50_32x4d", "wide_resnet50_2",
		"squeezenet1_0", "mobilenet_v2", "mobilenet_v3_large",
		"efficientnet_b0", "regnet_x_400mf", "densenet121",
	}
}

// ScalingModels is the eight-ConvNet subset of the paper's node-scaling
// experiment (Figure 8).
func ScalingModels() []string {
	return []string{
		"alexnet", "resnet18", "resnet50", "vgg16",
		"mobilenet_v2", "efficientnet_b0", "squeezenet1_0", "regnet_x_400mf",
	}
}

// builtModel caches a graph and its batch-1 metrics.
type builtModel struct {
	g   *graph.Graph
	met metrics.Metrics
}

// buildAll constructs every (model, image) combination that the
// architecture supports, silently skipping structurally impossible ones
// (e.g. AlexNet at 32 px), exactly as a real benchmark campaign would.
func buildAll(names []string, images []int) (map[string]map[int]builtModel, error) {
	out := make(map[string]map[int]builtModel, len(names))
	for _, name := range names {
		perImage := map[int]builtModel{}
		for _, img := range images {
			g, err := models.Build(name, img)
			if err != nil {
				continue // architecture cannot process this image size
			}
			met, err := metrics.FromGraph(g)
			if err != nil {
				return nil, fmt.Errorf("bench: metrics for %s@%d: %w", name, img, err)
			}
			perImage[img] = builtModel{g: g, met: met}
		}
		if len(perImage) == 0 {
			return nil, fmt.Errorf("bench: model %s builds at none of the requested image sizes", name)
		}
		out[name] = perImage
	}
	return out, nil
}

// InferenceScenario configures an inference benchmark sweep.
type InferenceScenario struct {
	Device     hwsim.Device
	Models     []string
	Images     []int
	Batches    []int
	NoiseSigma float64
	Seed       int64
	// Obs, when non-nil, receives sweep telemetry: point/task counters,
	// task-latency histograms, and one span per (model, image) task.
	Obs *obs.Obs
}

// DefaultInferenceScenario returns the paper's inference campaign on the
// given device.
func DefaultInferenceScenario(dev hwsim.Device, seed int64) InferenceScenario {
	return InferenceScenario{
		Device:     dev,
		Models:     PaperModels(),
		Images:     DefaultImages(),
		Batches:    DefaultBatches(),
		NoiseSigma: 0.06,
		Seed:       seed,
	}
}

// inferencePoint measures one (model, image, batch) sweep point and
// appends the sample to out, or counts a skip when the model does not
// fit device memory. It is the per-point inner loop of CollectInference
// and allocation-free (TestInferencePointZeroAllocs): the fit check, the
// forward prediction and the sample construction allocate nothing — the
// caller preallocates out to the full batch-sweep length, so append
// never grows it.
func inferencePoint(sim *hwsim.Simulator, bm builtModel, model string, img, batch int,
	out []core.Sample, skippedC *obs.Counter) ([]core.Sample, bool) {
	if !sim.Fits(bm.g, batch, false) {
		skippedC.Inc()
		return out, false // paper rule: sweep only while memory allows
	}
	return append(out, core.Sample{
		Model: model, Met: bm.met, Image: img,
		BatchPerDevice: batch, Devices: 1, Nodes: 1,
		Fwd: metrics.Seconds(sim.Forward(bm.g, batch)),
	}), true
}

// CollectInference runs the sweep and returns one sample per feasible
// (model, image, batch) combination.
func CollectInference(sc InferenceScenario) ([]core.Sample, error) {
	if len(sc.Models) == 0 || len(sc.Images) == 0 || len(sc.Batches) == 0 {
		return nil, fmt.Errorf("bench: empty inference scenario")
	}
	built, err := buildAll(sc.Models, sc.Images)
	if err != nil {
		return nil, err
	}
	// One task per (model, image): each owns a simulator seeded from the
	// configuration identity, so the sweep parallelises across cores while
	// staying bit-reproducible.
	type task struct {
		model string
		img   int
	}
	var tasks []task
	for _, name := range sc.Models {
		for _, img := range sc.Images {
			if _, ok := built[name][img]; ok {
				tasks = append(tasks, task{name, img})
			}
		}
	}
	pointsC, skippedC := sweepCounters(sc.Obs, "inference")
	results := make([][]core.Sample, len(tasks))
	err = runParallelObs(len(tasks), sc.Obs, "inference", func(i int) error {
		t := tasks[i]
		sp := sc.Obs.Start("bench:" + t.model + "@" + strconv.Itoa(t.img))
		defer sp.End()
		bm := built[t.model][t.img]
		sim := hwsim.NewSimulator(sc.Device, sc.NoiseSigma,
			deriveSeed(sc.Seed, "inference", t.model, strconv.Itoa(t.img)))
		out := make([]core.Sample, 0, len(sc.Batches))
		for _, batch := range sc.Batches {
			out, _ = inferencePoint(sim, bm, t.model, t.img, batch, out, skippedC)
		}
		pointsC.Add(float64(len(out)))
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var samples []core.Sample
	for _, r := range results {
		samples = append(samples, r...)
	}
	return capPoints(samples), nil
}

// TrainingScenario configures a training benchmark sweep. Topologies list
// the (devices, nodes) combinations to measure.
type TrainingScenario struct {
	Device         hwsim.Device
	Fabric         netsim.Fabric
	Models         []string
	Images         []int
	Batches        []int
	Topologies     [][2]int // {devices, nodes}
	FusionBytes    float64
	NoiseSigma     float64
	CommNoiseSigma float64
	Seed           int64
	// Obs, when non-nil, receives sweep telemetry (see InferenceScenario).
	Obs *obs.Obs
}

// sweepCounters returns the per-scenario point and memory-skip counters
// shared by the three collectors. Nil counters (disabled telemetry) are
// no-ops at the call sites.
func sweepCounters(o *obs.Obs, scenario string) (points, skipped *obs.Counter) {
	if o == nil {
		return nil, nil
	}
	return o.Counter(obs.Label("convmeter_bench_points_total", "scenario", scenario),
			"benchmark samples collected, by scenario kind"),
		o.Counter(obs.Label("convmeter_bench_skipped_total", "scenario", scenario),
			"sweep combinations skipped because the model does not fit device memory")
}

// DefaultSingleGPUScenario is the paper's single-A100 training campaign.
func DefaultSingleGPUScenario(seed int64) TrainingScenario {
	return TrainingScenario{
		Device:         hwsim.A100(),
		Fabric:         netsim.Cluster(),
		Models:         PaperModels(),
		Images:         []int{64, 128, 192, 224},
		Batches:        []int{1, 4, 16, 64, 256, 1024},
		Topologies:     [][2]int{{1, 1}},
		NoiseSigma:     0.06,
		CommNoiseSigma: 0.06,
		Seed:           seed,
	}
}

// DefaultDistributedScenario is the paper's multi-node campaign: four
// A100s per node across 1–16 nodes.
func DefaultDistributedScenario(seed int64) TrainingScenario {
	return TrainingScenario{
		Device:  hwsim.A100(),
		Fabric:  netsim.Cluster(),
		Models:  PaperModels(),
		Images:  []int{64, 128, 224},
		Batches: []int{4, 16, 64, 256},
		Topologies: [][2]int{
			{8, 2}, {16, 4}, {32, 8}, {64, 16},
		},
		NoiseSigma:     0.06,
		CommNoiseSigma: 0.16,
		Seed:           seed,
	}
}

// CollectTraining runs the training sweep.
func CollectTraining(sc TrainingScenario) ([]core.Sample, error) {
	if len(sc.Models) == 0 || len(sc.Images) == 0 || len(sc.Batches) == 0 || len(sc.Topologies) == 0 {
		return nil, fmt.Errorf("bench: empty training scenario")
	}
	built, err := buildAll(sc.Models, sc.Images)
	if err != nil {
		return nil, err
	}
	// Validate the configuration once up front so workers cannot race on
	// a construction error.
	if _, err := trainsim.New(trainsim.Config{
		Device: sc.Device, Fabric: sc.Fabric, FusionBytes: sc.FusionBytes,
		NoiseSigma: sc.NoiseSigma, CommNoiseSigma: sc.CommNoiseSigma, Seed: sc.Seed,
	}); err != nil {
		return nil, err
	}
	type task struct {
		model string
		img   int
	}
	var tasks []task
	for _, name := range sc.Models {
		for _, img := range sc.Images {
			if _, ok := built[name][img]; ok {
				tasks = append(tasks, task{name, img})
			}
		}
	}
	pointsC, skippedC := sweepCounters(sc.Obs, "training")
	results := make([][]core.Sample, len(tasks))
	err = runParallelObs(len(tasks), sc.Obs, "training", func(i int) error {
		t := tasks[i]
		sp := sc.Obs.Start("bench:" + t.model + "@" + strconv.Itoa(t.img))
		defer sp.End()
		bm := built[t.model][t.img]
		sim, err := trainsim.New(trainsim.Config{
			Device: sc.Device, Fabric: sc.Fabric, FusionBytes: sc.FusionBytes,
			NoiseSigma: sc.NoiseSigma, CommNoiseSigma: sc.CommNoiseSigma,
			Seed: deriveSeed(sc.Seed, "training", t.model, strconv.Itoa(t.img)),
		})
		if err != nil {
			return err
		}
		var out []core.Sample
		for _, batch := range sc.Batches {
			if !sim.Fits(bm.g, batch) {
				skippedC.Inc()
				continue
			}
			for _, topo := range sc.Topologies {
				p, err := sim.TrainStep(bm.g, batch, topo[0], topo[1])
				if err != nil {
					return fmt.Errorf("bench: %s@%d b%d on %v: %w", t.model, t.img, batch, topo, err)
				}
				out = append(out, core.Sample{
					Model: t.model, Met: bm.met, Image: t.img,
					BatchPerDevice: batch, Devices: topo[0], Nodes: topo[1],
					Fwd:  metrics.Seconds(p.Fwd),
					Bwd:  metrics.Seconds(p.Bwd),
					Grad: metrics.Seconds(p.Grad),
				})
			}
		}
		pointsC.Add(float64(len(out)))
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var samples []core.Sample
	for _, r := range results {
		samples = append(samples, r...)
	}
	return capPoints(samples), nil
}

// BlockScenario configures the block-wise sweep of Table 2.
type BlockScenario struct {
	Device     hwsim.Device
	Blocks     []string
	Scales     []float64 // input-size multipliers on each block's natural size
	Batches    []int
	NoiseSigma float64
	Seed       int64
	// Obs, when non-nil, receives sweep telemetry (see InferenceScenario).
	Obs *obs.Obs
}

// DefaultBlockScenario sweeps all registered Table 2 blocks on an A100.
func DefaultBlockScenario(seed int64) BlockScenario {
	return BlockScenario{
		Device:     hwsim.A100(),
		Blocks:     models.BlockNames(),
		Scales:     []float64{0.5, 1, 1.5, 2},
		Batches:    []int{1, 4, 16, 64, 256, 1024},
		NoiseSigma: 0.06,
		Seed:       seed,
	}
}

// CollectBlocks measures the named blocks at varying spatial inputs and
// batch sizes. The Sample.Model field carries the block name.
func CollectBlocks(sc BlockScenario) ([]core.Sample, error) {
	if len(sc.Blocks) == 0 || len(sc.Scales) == 0 || len(sc.Batches) == 0 {
		return nil, fmt.Errorf("bench: empty block scenario")
	}
	for _, name := range sc.Blocks {
		if _, err := models.Block(name); err != nil {
			return nil, err
		}
	}
	pointsC, skippedC := sweepCounters(sc.Obs, "blocks")
	results := make([][]core.Sample, len(sc.Blocks))
	err := runParallelObs(len(sc.Blocks), sc.Obs, "blocks", func(i int) error {
		name := sc.Blocks[i]
		sp := sc.Obs.Start("bench:" + name)
		defer sp.End()
		info, err := models.Block(name)
		if err != nil {
			return err
		}
		sim := hwsim.NewSimulator(sc.Device, sc.NoiseSigma,
			deriveSeed(sc.Seed, "blocks", name))
		var out []core.Sample
		for _, scale := range sc.Scales {
			hw := int(float64(info.NaturalHW) * scale)
			if hw < 3 {
				continue
			}
			g, err := models.BuildBlock(name, hw)
			if err != nil {
				continue
			}
			met, err := metrics.FromGraph(g)
			if err != nil {
				return err
			}
			for _, batch := range sc.Batches {
				if !sim.Fits(g, batch, false) {
					skippedC.Inc()
					continue
				}
				out = append(out, core.Sample{
					Model: name, Met: met, Image: hw,
					BatchPerDevice: batch, Devices: 1, Nodes: 1,
					Fwd: metrics.Seconds(sim.Forward(g, batch)),
				})
			}
		}
		pointsC.Add(float64(len(out)))
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var samples []core.Sample
	for _, r := range results {
		samples = append(samples, r...)
	}
	return capPoints(samples), nil
}

// CollectNamed runs one of the named default campaigns — the scenario
// vocabulary of cmd/benchgen: inference-gpu, inference-cpu, train-single,
// train-multi, blocks.
func CollectNamed(scenario string, seed int64) ([]core.Sample, error) {
	switch scenario {
	case "inference-gpu":
		return CollectInference(DefaultInferenceScenario(hwsim.A100(), seed))
	case "inference-cpu":
		sc := DefaultInferenceScenario(hwsim.XeonCore(), seed)
		// A single CPU core is swept to batch 32 only; larger batches
		// would take hours per measurement on real hardware.
		sc.Batches = []int{1, 2, 4, 8, 16, 32}
		return CollectInference(sc)
	case "train-single":
		return CollectTraining(DefaultSingleGPUScenario(seed))
	case "train-multi":
		return CollectTraining(DefaultDistributedScenario(seed))
	case "blocks":
		return CollectBlocks(DefaultBlockScenario(seed))
	default:
		return nil, fmt.Errorf("bench: unknown scenario %q (inference-gpu, inference-cpu, train-single, train-multi, blocks)", scenario)
	}
}

// Subsample returns n samples drawn deterministically and *stratified by
// model*: every model keeps (approximately) its proportional share, so a
// reduced dataset still spans the zoo. Used by the modeling-effort
// ablation (§3.4) to study fit quality vs dataset size.
func Subsample(samples []core.Sample, n int, seed int64) []core.Sample {
	if n <= 0 || n >= len(samples) {
		return samples
	}
	byModel := map[string][]core.Sample{}
	var order []string
	for _, s := range samples {
		if _, ok := byModel[s.Model]; !ok {
			order = append(order, s.Model)
		}
		byModel[s.Model] = append(byModel[s.Model], s)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []core.Sample
	remaining := n
	for i, model := range order {
		group := byModel[model]
		// Proportional share over the remaining groups, at least one.
		groupsLeft := len(order) - i
		take := remaining / groupsLeft
		if take < 1 {
			take = 1
		}
		if take > len(group) {
			take = len(group)
		}
		if take > remaining {
			take = remaining
		}
		perm := rng.Perm(len(group))[:take]
		sort.Ints(perm) // keep sweep order within the group
		for _, j := range perm {
			out = append(out, group[j])
		}
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	return out
}

// capPoints enforces the paper's <5,000-point rule by deterministic
// decimation (every k-th point) rather than truncation, preserving
// coverage of the sweep.
func capPoints(samples []core.Sample) []core.Sample {
	if len(samples) <= MaxPointsPerScenario {
		return samples
	}
	stride := (len(samples) + MaxPointsPerScenario - 1) / MaxPointsPerScenario
	var out []core.Sample
	for i := 0; i < len(samples); i += stride {
		out = append(out, samples[i])
	}
	return out
}
