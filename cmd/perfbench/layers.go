package main

import (
	"sort"
	"strings"

	"convmeter/internal/obs"
)

// spanGroup maps a span name to the layer boundary it marks: "step 12"
// → "step", "dag:fit" → "dag", "bench:resnet18@32" → "bench"; names
// without a variable part stay as they are.
func spanGroup(name string) string {
	if strings.HasPrefix(name, "step ") {
		return "step"
	}
	if g, _, ok := strings.Cut(name, ":"); ok {
		return g
	}
	return name
}

// spanTotals are a span group's summed durations (seconds) and count.
type spanTotals struct {
	total, self float64
	count       int
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover, keyed by span id.
func selfTimes(spans []obs.SpanRecord) map[int64]float64 {
	kids := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start.Seconds(), (s.Start + s.Dur).Seconds()})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		lo, hi := s.Start.Seconds(), (s.Start + s.Dur).Seconds()
		self[s.ID] = (hi - lo) - covered(kids[s.ID], lo, hi)
	}
	return self
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end float64
	end = lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// kernelSeconds returns the per-kind exec kernel seconds recorded
// between two registry snapshots.
func kernelSeconds(before, after []obs.Point) map[string]float64 {
	prev := map[string]float64{}
	for _, p := range before {
		prev[p.Name] = p.Value
	}
	out := map[string]float64{}
	for _, p := range after {
		if p.Base != "convmeter_exec_op_seconds" {
			continue
		}
		_, rest, _ := strings.Cut(p.Name, `kind="`)
		kind, _, _ := strings.Cut(rest, `"`)
		out[kind] += p.Value - prev[p.Name]
	}
	return out
}

// computeLayers derives the per-layer metrics of one traced segment from
// the spans the layers and the benchmark recorded during its timed ops,
// the exec kernel histograms, and the computed work of each op. Every
// per-layer metric the segment can measure is returned (the rest are
// filled in by the parent); a layer the workload does not use reads 0.
// detail carries absolute milliseconds per op for layers.json.
func computeLayers(spans []obs.SpanRecord, kernels map[string]float64, cls []classInfo, ops []opSample) (layers, detail map[string]float64) {
	layers, detail = map[string]float64{}, map[string]float64{}
	n := float64(len(ops))
	if n == 0 {
		return layers, detail
	}
	var opS, convFLOP, fwdFLOP, convBytes, busBytes float64
	payloadBytes, payloadS := map[string]float64{}, map[string]float64{}
	for _, op := range ops {
		c := cls[op.Class]
		s := op.Ms / 1e3
		opS += s
		convFLOP += c.ConvFLOP
		fwdFLOP += c.FwdFLOP
		convBytes += c.ConvBytes
		busBytes += c.BusBytes
		payloadBytes[c.Name] += c.BusBytes
		payloadS[c.Name] += s
	}
	replicas := cls[0].Replicas

	self := selfTimes(spans)
	groups := map[string]*spanTotals{}
	var steps, stepS, computeMax, computeIdle float64
	byParent := map[int64][]obs.SpanRecord{}
	for _, s := range spans {
		g := spanGroup(s.Name)
		t := groups[g]
		if t == nil {
			t = &spanTotals{}
			groups[g] = t
		}
		t.total += s.Dur.Seconds()
		t.self += self[s.ID]
		t.count++
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	nodeS := map[string]float64{}
	for _, s := range spans {
		switch spanGroup(s.Name) {
		case "step":
			// The step's per-worker compute spans run side by side; the
			// slowest sets the step time and the gap to the fastest is
			// barrier idle.
			lo, hi := -1.0, 0.0
			for _, k := range byParent[s.ID] {
				if k.Name != "compute" {
					continue
				}
				d := k.Dur.Seconds()
				hi = max(hi, d)
				if lo < 0 || d < lo {
					lo = d
				}
			}
			steps++
			stepS += s.Dur.Seconds()
			computeMax += hi
			computeIdle += hi - max(lo, 0)
		case "dag":
			_, id, _ := strings.Cut(s.Name, ":")
			nodeS[strings.TrimPrefix(id, "exp:")] += s.Dur.Seconds()
		}
	}
	get := func(g string) spanTotals {
		if t := groups[g]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	share := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}

	// exec
	fwd, bwd := get("fwd").total, get("bwd").total
	layers["exec.fwd_share"] = share(fwd, replicas*opS)
	layers["exec.bwd_share"] = share(bwd, replicas*opS)
	var kernelTotal float64
	for _, k := range kernelKinds {
		layers["exec.kernel_share."+k] = share(kernels[k], fwd)
		kernelTotal += kernels[k]
		detail["exec.kernel_ms_per_op."+k] = kernels[k] / n * 1e3
	}
	if fwd > 0 {
		layers["exec.dispatch_share"] = 1 - kernelTotal/fwd
	}
	layers["exec.conv2d_gflop_per_op"] = convFLOP / n / 1e9
	layers["exec.conv2d_gflop_per_s"] = share(convFLOP, kernels["conv2d"]) / 1e9
	layers["exec.conv2d_flop_per_byte"] = share(convFLOP, convBytes)
	layers["exec.fwd_gflop_per_s"] = share(fwdFLOP, fwd) / 1e9

	// train
	if steps > 0 {
		grad := get("grad").total
		layers["train.compute_share"] = share(computeMax, stepS)
		layers["train.barrier_idle_share"] = share(computeIdle, stepS)
		layers["train.grad_share"] = share(grad, stepS)
		layers["train.update_share"] = share(stepS-computeMax-grad, stepS)
	}

	// allreduce: the ring runs inside the trainer's grad spans, or is the
	// op itself for the sync workload.
	ringS := get("grad").total
	if ringS == 0 && busBytes > 0 {
		ringS = opS
	}
	layers["allreduce.busbw_gb_per_s"] = share(busBytes, ringS) / 1e9
	for _, p := range syncPayloads {
		layers["allreduce.busbw_gb_per_s."+p] = share(payloadBytes[p], payloadS[p]) / 1e9
	}
	workerS := ringS * ringWorkers
	layers["allreduce.send_share"] = share(get("ar.send").total, workerS)
	layers["allreduce.wait_share"] = share(get("ar.wait").total, workerS)
	layers["allreduce.reduce_gb_per_s"] = share(busBytes*ringWorkers, get("ar.recv").total) / 1e9
	layers["allreduce.bytes_per_op"] = busBytes / n

	// reproduce
	var busy float64
	for _, s := range nodeS {
		busy += s
	}
	for _, id := range dagNodes {
		layers["dag.node_share."+id] = share(nodeS[id], busy)
		detail["dag.node_ms_per_op."+id] = nodeS[id] / n * 1e3
	}
	layers["dag.parallel_efficiency"] = share(busy, opS*ringWorkers)
	layers["bench.sweep_share"] = share(get("bench").self, busy)
	layers["bench.tasks_per_op"] = float64(get("bench").count) / n
	layers["experiments.lomo_share"] = share(get("lomo").self, busy)
	layers["experiments.self_share"] = share(get("experiment").self, busy)

	for g, t := range groups {
		detail["span_ms_per_op."+g] = t.total / n * 1e3
		detail["self_ms_per_op."+g] = t.self / n * 1e3
	}
	return layers, detail
}
