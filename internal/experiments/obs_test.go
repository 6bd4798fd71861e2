package experiments

import (
	"strings"
	"testing"

	"convmeter/internal/obs"
)

// TestTable1TelemetryCounters runs table1 with a live bundle and checks
// the sweep counter against the experiment's own point stats: every
// benchmark point the experiment reports must have been counted by the
// instrumented collector.
func TestTable1TelemetryCounters(t *testing.T) {
	o := obs.New()
	res, err := Run("table1", Config{Seed: 5, Quick: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := res.Stats["points_xeon"] + res.Stats["points_a100"]
	if wantPoints == 0 {
		t.Fatal("table1 reported zero points")
	}
	got := o.Counter(obs.Label("convmeter_bench_points_total", "scenario", "inference"), "").Value()
	if got != wantPoints {
		t.Fatalf("convmeter_bench_points_total = %g, want %g (stats points)", got, wantPoints)
	}
	if n := o.Counter("convmeter_experiments_total", "").Value(); n != 1 {
		t.Fatalf("convmeter_experiments_total = %g, want 1", n)
	}
	if h := o.Histogram("convmeter_experiment_lomo_seconds", "", obs.DefaultDurationBuckets()); h.Count() == 0 {
		t.Fatal("no LOMO evaluations observed")
	}

	// The run must also have produced a root experiment span.
	spans := o.Trc.Spans()
	found := false
	for _, s := range spans {
		if s.Name == "experiment:table1" && s.Parent == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no root experiment:table1 span among %d spans", len(spans))
	}
}

// TestExtTrainRealSpanAncestry runs the real data-parallel training
// fixture and asserts the acceptance span tree: every fwd, bwd, and grad
// span must reach the experiment:exttrainreal root by walking Parent IDs.
func TestExtTrainRealSpanAncestry(t *testing.T) {
	o := obs.New()
	res, err := Run("exttrainreal", Config{Seed: 5, Quick: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["loss_last"] >= res.Stats["loss_first"] {
		t.Fatalf("training did not learn: %g -> %g",
			res.Stats["loss_first"], res.Stats["loss_last"])
	}
	spans := o.Trc.Spans()
	byID := map[int64]obs.SpanRecord{}
	var rootID int64
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "experiment:exttrainreal" {
			rootID = s.ID
		}
	}
	if rootID == 0 {
		t.Fatal("no experiment:exttrainreal span recorded")
	}
	counts := map[string]int{}
	for _, s := range spans {
		kind := s.Name
		if strings.HasPrefix(kind, "step ") {
			kind = "step"
		}
		if kind != "fwd" && kind != "bwd" && kind != "grad" && kind != "step" {
			continue
		}
		counts[kind]++
		// Walk the parent chain to the root; a broken chain or one that
		// tops out somewhere other than the experiment span is a bug in
		// parent propagation through train → exec/allreduce.
		id := s.ID
		for hops := 0; ; hops++ {
			if hops > 100 {
				t.Fatalf("span %q: parent chain does not terminate", s.Name)
			}
			rec := byID[id]
			if rec.Parent == 0 {
				if rec.ID != rootID {
					t.Fatalf("span %q roots at %q, want experiment:exttrainreal",
						s.Name, rec.Name)
				}
				break
			}
			id = rec.Parent
		}
	}
	steps := int(res.Stats["steps"])
	if counts["step"] != steps {
		t.Fatalf("%d step spans, want %d", counts["step"], steps)
	}
	if counts["grad"] != steps {
		t.Fatalf("%d grad spans, want %d (one per step)", counts["grad"], steps)
	}
	workers := int(res.Stats["workers"])
	// One fwd per worker per step from Gradients, plus bwd to match.
	if counts["fwd"] != steps*workers || counts["bwd"] != steps*workers {
		t.Fatalf("fwd=%d bwd=%d, want %d each (steps×workers)",
			counts["fwd"], counts["bwd"], steps*workers)
	}
	if n := o.Counter("convmeter_train_steps_total", "").Value(); int(n) != steps {
		t.Fatalf("convmeter_train_steps_total = %g, want %d", n, steps)
	}
}

// TestNilObsStaysDark pins the disabled path at the experiment level: a
// nil bundle must not be lazily created anywhere down the stack.
func TestNilObsStaysDark(t *testing.T) {
	res, err := Run("exttrainreal", Config{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Stats["steps"] == 0 {
		t.Fatal("run without telemetry produced no result")
	}
}

// TestExtTrainRealQuickLearnsAtEverySeed runs the quick fixture at seeds
// 1–40 and requires every run to pass its own checks: the loss falls and
// the replicas stay synchronised. A run too short to recover from the
// early overshoot fails "loss did not fall" at some of these seeds.
func TestExtTrainRealQuickLearnsAtEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if _, err := ExtTrainReal(Config{Seed: seed, Quick: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
