package main

// metricSpec describes one reported metric. The tables below are the
// source of truth for BENCHMARK.json at the repository root; spec_test
// keeps the two in agreement.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move and on which workload.
	Moves string
}

// workloadNames lists the workloads in the order a set runs them in its
// first round; why each exists is in BENCHMARK.json and README.md.
var workloadNames = []string{"infer", "train", "sync", "reproduce"}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from untraced segments only. The times,
// setup_s, items_per_s and op_p50_ms, are normalised to the nominal
// yardstick (see yardstick.go). An "op" is
// one inference request, one training step, one all-reduce or one
// reproduction run; an "item" is one image, one training sample, one
// reduced float or one reproduction run.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.15},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// kernelKinds are the exec op kinds present in the infer and train
// models; each gets its share of forward time.
var kernelKinds = []string{
	"conv2d", "batchnorm", "activation", "add", "mul", "concat",
	"pool2d", "adaptiveavgpool", "linear", "flatten", "dropout", "input",
}

// syncPayloads are the all-reduce payload classes of the sync workload:
// the gradient sizes (metrics W) of these zoo models at 32x32.
var syncPayloads = []string{"squeezenet1_1", "mobilenet_v3_small", "mobilenet_v2", "resnet18"}

// dagNodes are the experiment DAG's node ids for the reproduce
// workload's experiment list, as metric-name suffixes.
var dagNodes = []string{
	"fit", "lomo", "fig2", "table2", "table3single", "fig6", "table3multi",
	"fig8", "fig9", "ablation", "extvit", "extedge", "extpipeline", "extstrong",
	"figures", "report",
}

// perLayer are the metrics of single layers, from traced segments
// (setup.* and runtime.* from the untraced segments of the same run).
// Every traced run reports every one of them; a layer a workload does
// not use reads 0. Only metrics every workload exercises are times;
// the rest are shares, rates and counts.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "setup.process_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
		{Name: "setup.prepare_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
		{Name: "setup.warmup_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
		{Name: "setup.build_share", Unit: "ratio", Better: "lower", Moves: "setup_s, infer/train/sync"},
		{Name: "setup.init_share", Unit: "ratio", Better: "lower", Moves: "setup_s, infer/train/sync"},
		{Name: "trace.op_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, all workloads"},
		{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "none: traced / untraced op_p50_ms - 1"},
		{Name: "exec.fwd_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, infer/train"},
		{Name: "exec.bwd_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, train"},
	}
	for _, k := range kernelKinds {
		m = append(m, metricSpec{Name: "exec.kernel_share." + k, Unit: "ratio", Better: "lower",
			Moves: "items_per_s, infer/train"})
	}
	m = append(m, []metricSpec{
		{Name: "exec.dispatch_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, infer batch 1"},
		{Name: "exec.conv2d_gflop_per_op", Unit: "GFLOP", Better: "lower", Moves: "none: exact count of the mix"},
		{Name: "exec.conv2d_gflop_per_s", Unit: "GFLOP/s", Better: "higher", Moves: "items_per_s, infer/train"},
		{Name: "exec.conv2d_flop_per_byte", Unit: "FLOP/byte", Better: "higher", Moves: "none: computed from shapes"},
		{Name: "exec.fwd_gflop_per_s", Unit: "GFLOP/s", Better: "higher", Moves: "items_per_s, infer/train"},
		{Name: "train.compute_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, train"},
		{Name: "train.barrier_idle_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, train"},
		{Name: "train.grad_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, train"},
		{Name: "train.update_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, train"},
		{Name: "allreduce.busbw_gb_per_s", Unit: "GB/s", Better: "higher", Moves: "items_per_s, sync/train"},
	}...)
	for _, p := range syncPayloads {
		m = append(m, metricSpec{Name: "allreduce.busbw_gb_per_s." + p, Unit: "GB/s", Better: "higher",
			Moves: "op_p50_ms, sync"})
	}
	m = append(m, []metricSpec{
		{Name: "allreduce.send_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, sync"},
		{Name: "allreduce.wait_share", Unit: "ratio", Better: "lower", Moves: "items_per_s, sync"},
		{Name: "allreduce.reduce_gb_per_s", Unit: "GB/s", Better: "higher", Moves: "items_per_s, sync"},
		{Name: "allreduce.bytes_per_op", Unit: "bytes", Better: "lower", Moves: "none: exact 2(N-1)/N*4W"},
		{Name: "allreduce.tcp_max_ok_floats", Unit: "count", Better: "higher", Moves: "none: largest payload RingTCPOpts completes"},
	}...)
	for _, id := range dagNodes {
		m = append(m, metricSpec{Name: "dag.node_share." + id, Unit: "ratio", Better: "lower",
			Moves: "op_p50_ms, reproduce"})
	}
	m = append(m, []metricSpec{
		{Name: "dag.parallel_efficiency", Unit: "ratio", Better: "higher", Moves: "op_p50_ms, reproduce"},
		{Name: "bench.sweep_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, reproduce"},
		{Name: "bench.tasks_per_op", Unit: "count", Better: "lower", Moves: "none: exact count"},
		{Name: "experiments.lomo_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, reproduce"},
		{Name: "experiments.self_share", Unit: "ratio", Better: "lower", Moves: "op_p50_ms, reproduce"},
		{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "peak_rss_mb, all workloads"},
		{Name: "runtime.gc_per_op", Unit: "count", Better: "lower", Moves: "op_p50_ms, all workloads"},
		{Name: "host.yardstick_ms", Unit: "ms", Better: "lower", Moves: "none: host speed"},
		{Name: "host.drift", Unit: "ratio", Better: "lower", Moves: "none: p90/p10 of the run's yardstick readings"},
	}...)
	return m
}
