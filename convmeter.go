// Package convmeter is a Go implementation of ConvMeter — the analytical
// performance model for convolutional neural networks from "Dissecting
// Convolutional Neural Networks for Runtime and Scalability Prediction"
// (Beringer, Stock, Mazaheri, Wolf — ICPP '24).
//
// ConvMeter predicts ConvNet inference and training time from five
// metrics that can be computed statically from a network's computational
// graph — FLOPs, Inputs, Outputs, Weights and Layers — combined with a
// handful of platform-specific linear-regression coefficients fitted on
// benchmark measurements. It supports:
//
//   - inference (forward pass) prediction on CPUs and GPUs,
//   - per-block prediction for NAS-style architecture work,
//   - training-step prediction (forward, backward, gradient update),
//   - distributed data-parallel training and scalability analysis over
//     node counts and batch sizes, including batch sizes beyond device
//     memory.
//
// This package is the stable façade over the implementation packages. A
// typical session:
//
//	g, _ := convmeter.BuildModel("resnet50", 224)
//	met, _ := convmeter.MetricsOf(g)
//	samples, _ := convmeter.CollectInference(convmeter.DefaultInferenceScenario(convmeter.A100(), 1))
//	model, _ := convmeter.FitInference(samples)
//	fmt.Println(model.Predict(met, 64)) // seconds for batch 64
//
// Because no GPU cluster is attached to a Go test environment, benchmark
// "measurements" come from a calibrated roofline hardware simulator and a
// hierarchical all-reduce network simulator (see DESIGN.md for the
// substitution rationale); the modeling pipeline is unchanged — datasets
// collected on real hardware can be loaded with ReadCSV and fitted
// identically.
package convmeter

import (
	"io"

	"convmeter/internal/baselines"
	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/dagrun"
	"convmeter/internal/experiments"
	"convmeter/internal/graph"
	"convmeter/internal/hwreal"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/pipesim"
	"convmeter/internal/trainsim"
)

// Core modelling types.
type (
	// Graph is a ConvNet computational graph (JSON-serialisable).
	Graph = graph.Graph
	// Shape is a per-image CHW tensor shape.
	Shape = graph.Shape
	// Builder constructs graphs programmatically.
	Builder = graph.Builder
	// Metrics holds the five ConvMeter metrics at batch size 1.
	Metrics = metrics.Metrics
	// Sample is one benchmark measurement used for fitting.
	Sample = core.Sample
	// InferenceModel is a fitted forward-pass predictor (Eq. 2/3).
	InferenceModel = core.InferenceModel
	// TrainingModel is a fitted training-step predictor (Eq. 1).
	TrainingModel = core.TrainingModel
	// Phases is a predicted training-step decomposition.
	Phases = core.Phases
	// Evaluation is a leave-one-model-out accuracy report.
	Evaluation = core.Evaluation
	// TrainEvaluation adds per-phase reports to Evaluation.
	TrainEvaluation = core.TrainEvaluation
	// Device is a simulated processor profile.
	Device = hwsim.Device
	// Fabric is a simulated cluster interconnect.
	Fabric = netsim.Fabric
	// BlockInfo describes a named ConvNet block (Table 2).
	BlockInfo = models.BlockInfo
)

// Benchmark scenario types.
type (
	// InferenceScenario configures an inference benchmark sweep.
	InferenceScenario = bench.InferenceScenario
	// TrainingScenario configures a training benchmark sweep.
	TrainingScenario = bench.TrainingScenario
	// BlockScenario configures a block-wise benchmark sweep.
	BlockScenario = bench.BlockScenario
)

// NewGraph starts building a graph with the given name and input shape.
func NewGraph(name string, input Shape) (*Builder, graph.Ref) {
	return graph.NewBuilder(name, input)
}

// ModelNames lists the ConvNet zoo (AlexNet … DenseNet).
func ModelNames() []string { return models.Names() }

// BuildModel constructs a zoo model for a square img×img RGB input.
func BuildModel(name string, img int) (*Graph, error) { return models.Build(name, img) }

// BlockNames lists the named constituent blocks of Table 2.
func BlockNames() []string { return models.BlockNames() }

// Block returns metadata for a named block.
func Block(name string) (BlockInfo, error) { return models.Block(name) }

// BuildBlock constructs a named block with an hw×hw spatial input.
func BuildBlock(name string, hw int) (*Graph, error) { return models.BuildBlock(name, hw) }

// MetricsOf extracts the five ConvMeter metrics from a graph.
func MetricsOf(g *Graph) (Metrics, error) { return metrics.FromGraph(g) }

// MetricsOfRange extracts the metrics of the node range [from, to) — a
// block or pipeline stage of a larger network.
func MetricsOfRange(g *Graph, from, to int) (Metrics, error) {
	return metrics.FromGraphRange(g, from, to)
}

// A100 returns the NVIDIA A100-80GB-like simulated device profile.
func A100() Device { return hwsim.A100() }

// XeonCore returns the single-Xeon-core-like simulated device profile.
func XeonCore() Device { return hwsim.XeonCore() }

// JetsonLike returns an embedded-GPU (Jetson-class) edge device profile.
func JetsonLike() Device { return hwsim.JetsonLike() }

// PiLike returns a small-ARM-core (Raspberry-Pi-class) edge device
// profile.
func PiLike() Device { return hwsim.PiLike() }

// Cluster returns the 4×A100-per-node NVLink + InfiniBand fabric profile.
func Cluster() Fabric { return netsim.Cluster() }

// DefaultInferenceScenario is the paper's inference benchmark campaign.
func DefaultInferenceScenario(dev Device, seed int64) InferenceScenario {
	return bench.DefaultInferenceScenario(dev, seed)
}

// DefaultSingleGPUScenario is the paper's single-A100 training campaign.
func DefaultSingleGPUScenario(seed int64) TrainingScenario {
	return bench.DefaultSingleGPUScenario(seed)
}

// DefaultDistributedScenario is the paper's multi-node training campaign.
func DefaultDistributedScenario(seed int64) TrainingScenario {
	return bench.DefaultDistributedScenario(seed)
}

// DefaultBlockScenario is the paper's block-wise benchmark campaign.
func DefaultBlockScenario(seed int64) BlockScenario {
	return bench.DefaultBlockScenario(seed)
}

// CollectInference runs an inference benchmark sweep on the simulator.
func CollectInference(sc InferenceScenario) ([]Sample, error) {
	return bench.CollectInference(sc)
}

// CollectTraining runs a training benchmark sweep on the simulator.
func CollectTraining(sc TrainingScenario) ([]Sample, error) {
	return bench.CollectTraining(sc)
}

// CollectBlocks runs a block-wise benchmark sweep on the simulator.
func CollectBlocks(sc BlockScenario) ([]Sample, error) {
	return bench.CollectBlocks(sc)
}

// CollectNamed runs one of the named default campaigns: inference-gpu,
// inference-cpu, train-single, train-multi, blocks.
func CollectNamed(scenario string, seed int64) ([]Sample, error) {
	return bench.CollectNamed(scenario, seed)
}

// Subsample draws n samples deterministically, stratified by model, so a
// reduced dataset still spans the zoo.
func Subsample(samples []Sample, n int, seed int64) []Sample {
	return bench.Subsample(samples, n, seed)
}

// WriteCSV stores a benchmark dataset.
func WriteCSV(w io.Writer, samples []Sample) error { return bench.WriteCSV(w, samples) }

// ReadCSV loads a benchmark dataset (simulated or real).
func ReadCSV(r io.Reader) ([]Sample, error) { return bench.ReadCSV(r) }

// FitInference fits the four-coefficient forward-pass model.
func FitInference(samples []Sample) (*InferenceModel, error) {
	return core.FitInference(samples)
}

// FitTraining fits the training-step model (forward, backward, gradient
// and the combined overlapped form).
func FitTraining(samples []Sample) (*TrainingModel, error) {
	return core.FitTraining(samples)
}

// EvaluateInferenceLOMO runs the paper's leave-one-model-out protocol on
// inference samples.
func EvaluateInferenceLOMO(samples []Sample) (*Evaluation, error) {
	return core.EvaluateInferenceLOMO(samples)
}

// EvaluateTrainingLOMO runs the leave-one-model-out protocol on training
// samples.
func EvaluateTrainingLOMO(samples []Sample) (*TrainEvaluation, error) {
	return core.EvaluateTrainingLOMO(samples)
}

// ExperimentConfig controls a paper-experiment run.
type ExperimentConfig = experiments.Config

// ExperimentResult is the outcome of one paper experiment.
type ExperimentResult = experiments.Result

// RunExperiment reproduces one experiment by id: one of the paper's
// tables or figures, or one of the extensions. ExperimentIDs lists every
// id.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiments.Run(id, cfg)
}

// RunAllExperiments reproduces every table and figure, returning the
// results in the paper's order. Independent experiments run in parallel
// as one in-memory DAG, the same path cmd/experiments takes.
func RunAllExperiments(cfg ExperimentConfig) ([]*ExperimentResult, error) {
	res, _, err := experiments.RunDAG(experiments.IDs(), cfg, experiments.DagConfig{})
	return res, err
}

// ExperimentIDs lists every experiment id in the paper's order.
func ExperimentIDs() []string {
	return experiments.IDs()
}

// ExperimentsDagConfig parameterises a durable (crash-resumable,
// manifest-backed) experiment run.
type ExperimentsDagConfig = experiments.DagConfig

// DagReport is the executor's audit trail: per-node state, manifest
// hash, attempt count and blame.
type DagReport = dagrun.Report

// ErrDagCrashed marks a run killed by an injected process crash; resume
// by re-running over the same manifest directory.
var ErrDagCrashed = dagrun.ErrCrashed

// RunExperimentsDAG runs the given experiment ids as the
// fit→LOMO→report DAG and returns their results in order. The
// audit report is returned even when the run fails or is killed, so
// callers can surface blame.
func RunExperimentsDAG(ids []string, cfg ExperimentConfig, dcfg ExperimentsDagConfig) ([]*ExperimentResult, *DagReport, error) {
	return experiments.RunDAG(ids, cfg, dcfg)
}

// MetricMask selects metric subsets for the Figure 2 ablation baselines.
type MetricMask = baselines.MetricMask

// FitAblation fits a restricted (e.g. FLOPs-only) inference model.
func FitAblation(samples []Sample, mask MetricMask) (*baselines.AblationModel, error) {
	return baselines.FitAblation(samples, mask)
}

// Pipeline model parallelism (extension; see internal/pipesim).
type (
	// PipelineStage is one contiguous stage of a pipeline partition.
	PipelineStage = pipesim.Stage
	// PipelinePredictor composes the block-wise model into pipeline
	// throughput predictions.
	PipelinePredictor = pipesim.Predictor
	// PipelineLink is the inter-stage transport profile.
	PipelineLink = pipesim.Link
)

// PartitionPipeline splits a graph into k FLOPs-balanced contiguous
// stages for pipeline model parallelism.
func PartitionPipeline(g *Graph, k int) ([]PipelineStage, error) {
	return pipesim.Partition(g, k)
}

// NVLinkStageLink returns the default NVLink-like inter-stage link.
func NVLinkStageLink() PipelineLink { return pipesim.NVLink() }

// StrongScalingPoint is one entry of a strong-scaling (fixed global
// batch) prediction curve — see TrainingModel.PredictStrongScaling.
type StrongScalingPoint = core.StrongScalingPoint

// MeasureReal times an actual forward-pass execution of the graph on the
// host CPU using the built-in Go execution engine — a genuine wall-clock
// measurement (warmup untimed runs, then the fastest of reps timed runs).
func MeasureReal(g *Graph, batch, warmup, reps int, seed int64) (float64, error) {
	return hwreal.Measure(g, batch, warmup, reps, seed)
}

// RealScenario configures a real-hardware measurement campaign on the
// host CPU.
type RealScenario = hwreal.Scenario

// DefaultRealScenario is a small host-CPU campaign (seconds of wall
// clock).
func DefaultRealScenario(seed int64) RealScenario { return hwreal.DefaultScenario(seed) }

// CollectReal runs a real-hardware campaign and returns fitted-ready
// samples.
func CollectReal(sc RealScenario) ([]Sample, error) { return hwreal.Collect(sc) }

// TrainStepSimulator exposes the training simulator for users who want
// raw simulated measurements rather than fitted predictions.
type TrainStepSimulator = trainsim.Simulator

// NewTrainSimulator builds a training simulator on the given device and
// fabric with the given measurement-noise levels.
func NewTrainSimulator(dev Device, fab Fabric, noise, commNoise float64, seed int64) (*TrainStepSimulator, error) {
	return trainsim.New(trainsim.Config{
		Device: dev, Fabric: fab,
		NoiseSigma: noise, CommNoiseSigma: commNoise, Seed: seed,
	})
}
