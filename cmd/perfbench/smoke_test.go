package main

import (
	"strings"
	"testing"

	"convmeter/internal/experiments"
)

// TestWorkloadsSmoke runs every workload for a cycle or two, traced,
// through the same segment code and output checks as a real run.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cycles := 1
			if w == "train" || w == "reproduce" {
				cycles = 2 // one class: two ops, so the determinism checks compare something
			}
			r := runSegment(segConfig{workload: w, seed: goldenSeed, cycles: cycles, traced: true})
			if r.Failed != 0 || len(r.Errors) != 0 {
				t.Fatalf("%d failed: %v", r.Failed, r.Errors)
			}
			if len(r.Ops) != cycles*len(r.Classes) {
				t.Fatalf("%d ops for %d cycles of %d classes", len(r.Ops), cycles, len(r.Classes))
			}
			if n, err := crossCheck([]*segResult{r, r}); n != 0 || err != nil {
				t.Fatal(err)
			}
			if r.FirstOpNs < r.WarmupNs || r.WarmupNs < r.MainNs || r.Ops[0].RSS <= 0 || r.Ops[0].Y <= 0 {
				t.Errorf("set-up timestamps %d %d %d, first op %+v", r.MainNs, r.WarmupNs, r.FirstOpNs, r.Ops[0])
			}
			for k, v := range r.Layers {
				if !(v >= 0) && k != "exec.dispatch_share" && k != "train.update_share" {
					t.Errorf("layer %s = %v", k, v)
				}
			}
			positive := map[string][]string{
				"infer":     {"exec.fwd_share", "exec.kernel_share.conv2d", "exec.conv2d_gflop_per_s", "exec.conv2d_flop_per_byte"},
				"train":     {"exec.fwd_share", "exec.bwd_share", "train.compute_share", "train.grad_share", "allreduce.busbw_gb_per_s"},
				"sync":      {"allreduce.busbw_gb_per_s", "allreduce.busbw_gb_per_s.resnet18", "allreduce.wait_share", "allreduce.reduce_gb_per_s"},
				"reproduce": {"dag.node_share.lomo", "dag.parallel_efficiency", "bench.sweep_share", "bench.tasks_per_op"},
			}[w]
			for _, k := range positive {
				if !(r.Layers[k] > 0) {
					t.Errorf("layer %s = %v, want > 0", k, r.Layers[k])
				}
			}
		})
	}
}

// TestChecksCatchWrongOutputs corrupts each workload's output after a
// real call and expects its check to fail.
func TestChecksCatchWrongOutputs(t *testing.T) {
	var st setupTimes
	inf, err := newInfer(goldenSeed, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	for c, cls := range inf.classes() {
		if !strings.HasSuffix(cls.Name, "_b4") || !strings.HasPrefix(cls.Name, "squeezenet") {
			continue
		}
		inf.prepare(c)
		if err := inf.call(); err != nil {
			t.Fatal(err)
		}
		inf.out.Data[3] += 1
		if _, err := inf.check(); err == nil {
			t.Error("infer: corrupted golden row passed")
		}
	}

	syn, err := newSync(goldenSeed, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	syn.prepare(0)
	if err := syn.call(); err != nil {
		t.Fatal(err)
	}
	syn.v[1][syn.n-1] += 1
	if _, err := syn.check(); err == nil {
		t.Error("sync: corrupted sum passed")
	}

	rep, err := newReproduce(goldenSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.call(); err != nil {
		t.Fatal(err)
	}
	rep.res[0].Stats["injected"] = 1
	if _, err := rep.check(); err == nil {
		t.Error("reproduce: changed result passed")
	}
}

// TestReproduceFullScaleGolden checks the full-scale reproduction of the
// golden seed, which the reproduce workload runs only in Quick mode,
// byte for byte against its golden text.
func TestReproduceFullScaleGolden(t *testing.T) {
	want, err := loadReproduceGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runReproduce(reproduceIDs(), experiments.Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResults(res); got != want {
		t.Fatalf("full-scale golden-seed text differs from testdata (%d vs %d bytes)", len(got), len(want))
	}
}
