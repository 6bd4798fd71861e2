package experiments

import (
	"strings"
	"testing"

	"convmeter/internal/obs"
)

// TestTable1TelemetryCounters runs table1 with a live bundle and counts
// what its trace recorded: one root experiment:table1 span, and under
// it the sweep's bench:<model>@<image> task spans and the LOMO
// evaluations' lomo spans. The numbers of the run itself — its points
// and its fits — are in the Result.
func TestTable1TelemetryCounters(t *testing.T) {
	o := obs.New()
	res, err := Run("table1", Config{Seed: 5, Quick: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["points_xeon"]+res.Stats["points_a100"] == 0 {
		t.Fatal("table1 reported zero points")
	}
	spans := o.Trc.Spans()
	byID := map[int64]obs.SpanRecord{}
	var rootID int64
	roots := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
			if s.Name == "experiment:table1" {
				rootID = s.ID
			}
		}
	}
	if rootID == 0 || roots != 1 {
		t.Fatalf("%d root spans, want the one experiment:table1 span", roots)
	}
	counts := map[string]int{}
	for _, s := range spans {
		kind, _, _ := strings.Cut(s.Name, ":")
		if kind != "bench" && kind != "lomo" {
			continue
		}
		counts[kind]++
		id := s.ID
		for byID[id].Parent != 0 {
			id = byID[id].Parent
		}
		if id != rootID {
			t.Fatalf("span %q does not descend from experiment:table1", s.Name)
		}
	}
	if counts["bench"] == 0 || counts["lomo"] == 0 {
		t.Fatalf("trace holds %d bench and %d lomo spans, want both > 0", counts["bench"], counts["lomo"])
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
