package experiments

import (
	"reflect"
	"testing"

	"convmeter/internal/driftwatch"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

// faultsCfg is the acceptance configuration: quick sweep, the chaos
// profile, and a fault seed verified to deal at least one worker crash,
// one dropped connection and one corrupted chunk.
var faultsCfg = Config{Seed: 1, Quick: true, FaultsSeed: 7}

// TestExtTrainFaultsSurvivesChaos is the chaos acceptance test: the run
// must complete under the chaos profile, shrink the ring (the scheduled
// crash), inject at least one drop and one corruption, and still satisfy
// the data-parallel correctness conditions (falling loss, identical
// survivor checksums — both asserted inside the experiment itself).
func TestExtTrainFaultsSurvivesChaos(t *testing.T) {
	res, err := ExtTrainFaults(faultsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["workers_live"] >= res.Stats["workers_start"] {
		t.Fatalf("live %v of %v workers: ring did not shrink",
			res.Stats["workers_live"], res.Stats["workers_start"])
	}
	for _, class := range []string{"crash", "drop", "corrupt"} {
		if res.Stats["faults_"+class] < 1 {
			t.Fatalf("fault seed %d injected no %s (stats %v)", faultsCfg.FaultsSeed, class, res.Stats)
		}
	}
	if res.Stats["loss_last"] >= res.Stats["loss_first"] {
		t.Fatalf("loss did not fall: %v -> %v", res.Stats["loss_first"], res.Stats["loss_last"])
	}
}

// TestExtTrainFaultsQuickLearns runs the quick chaos fixture at the
// seeds where a 10-step run ended on the loss spike around step 10 and
// failed "loss did not fall under faults". (Seeds 1–40 all pass; the
// full sweep takes ~40 s, too long for the unit suite.)
func TestExtTrainFaultsQuickLearns(t *testing.T) {
	for _, seed := range []int64{9, 14, 40} {
		if _, err := ExtTrainFaults(Config{Seed: seed, Quick: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestExtTrainFaultsReproducible: the same fault seed must reproduce the
// identical fault schedule and the identical training outcome — the
// framework's core determinism property, end to end through real TCP
// rings, retries and elastic degradation.
func TestExtTrainFaultsReproducible(t *testing.T) {
	a, err := ExtTrainFaults(faultsCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtTrainFaults(faultsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("same fault seed, different outcome:\n%v\n%v", a.Stats, b.Stats)
	}
	c, err := ExtTrainFaults(Config{Seed: 1, Quick: true, FaultsSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Stats, c.Stats) {
		t.Fatal("different fault seeds produced identical fault statistics")
	}
}

// TestExtTrainFaultsAttributionOnlyObserves: attaching telemetry must
// only read the run, and the critical-path report is computed from the
// recorded trace afterwards. The fault injector deals by sequence
// number over the ring's sockets, so any traffic the observers added
// there would shift the fault schedule and with it the outcome; the
// same seed must give the same stats and report either way.
func TestExtTrainFaultsAttributionOnlyObserves(t *testing.T) {
	bare, err := ExtTrainFaults(faultsCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultsCfg
	cfg.Obs = obs.New()
	observed, err := ExtTrainFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Stats, observed.Stats) {
		t.Errorf("attribution changed the run's stats:\nbare     %v\nobserved %v", bare.Stats, observed.Stats)
	}
	if bare.Text != observed.Text {
		t.Errorf("attribution changed the run's report:\nbare:\n%s\nobserved:\n%s", bare.Text, observed.Text)
	}
	if n := len(critpath.Analyze(cfg.Obs.Trc.Spans())); n == 0 {
		t.Error("attribution analyzed no step")
	}
}

// TestExtTrainFaultsProfileSelection: the profile knob reaches the
// injector; "none" must inject nothing and keep every worker alive.
func TestExtTrainFaultsProfileSelection(t *testing.T) {
	cfg := faultsCfg
	cfg.FaultsProfile = "none"
	res, err := ExtTrainFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["workers_live"] != res.Stats["workers_start"] {
		t.Fatalf("fault-free run lost workers: %v", res.Stats)
	}
	for k, v := range res.Stats {
		if len(k) > 7 && k[:7] == "faults_" && v != 0 {
			t.Fatalf("fault-free run injected %s = %v", k, v)
		}
	}
	cfg.FaultsProfile = "not-a-profile"
	if _, err := ExtTrainFaults(cfg); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// chaosDriftStream runs the chaos experiment with a drift stream
// attached and returns the stream's snapshot.
func chaosDriftStream(t *testing.T, profile string) driftwatch.Snapshot {
	t.Helper()
	cfg := faultsCfg
	cfg.FaultsProfile = profile
	cfg.Drift = driftwatch.NewStream()
	if _, err := ExtTrainFaults(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg.Drift.Snapshot()
}

// TestExtTrainFaultsDriftDetection is the drift check's acceptance
// criterion: under the slowdown profile the recorded step times break
// away from the fitted model's predictions and the drift stream latches
// drifting, while an otherwise identical fault-free run raises no drift
// event.
func TestExtTrainFaultsDriftDetection(t *testing.T) {
	slow := chaosDriftStream(t, "slowdown")
	if slow.Events < 1 || slow.State != driftwatch.StateDrifting {
		t.Errorf("slowdown run did not drift: %+v", slow)
	}
	clean := chaosDriftStream(t, "none")
	if clean.Events != 0 {
		t.Errorf("fault-free run raised %d drift events: %+v", clean.Events, clean)
	}
	if clean.Pairs == 0 {
		t.Errorf("fault-free run fed no pairs: %+v", clean)
	}
}
