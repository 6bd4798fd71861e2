package train

import (
	"testing"
	"time"

	"convmeter/internal/driftwatch"
	"convmeter/internal/faults"
)

// TestStepFeedsDriftPairs: with Drift+PredictStep configured, every
// completed step contributes exactly one (predicted, measured) pair,
// and the predicted side sees the live-worker count.
func TestStepFeedsDriftPairs(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon := driftwatch.New(nil)
	var liveSeen []int
	cfg := Config{
		Workers: 2, LR: 0.05, Seed: 1,
		Drift: mon.Stream("trainnet", "iter"),
		PredictStep: func(live int) float64 {
			liveSeen = append(liveSeen, live)
			return 0.001
		},
	}
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	if _, err := tr.Run(steps, task.Source(2)); err != nil {
		t.Fatal(err)
	}
	snap := mon.Snapshot()
	if len(snap.Streams) != 1 || snap.Streams[0].Pairs != steps {
		t.Fatalf("drift snapshot = %+v, want %d pairs on one stream", snap, steps)
	}
	if len(liveSeen) != steps {
		t.Fatalf("PredictStep called %d times, want %d", len(liveSeen), steps)
	}
	for i, n := range liveSeen {
		if n != 2 {
			t.Errorf("step %d: PredictStep saw %d live workers, want 2", i, n)
		}
	}
}

// TestDriftDisabledWithoutPredictor: a stream without a predictor (or a
// predictor without a stream) must not feed or crash.
func TestDriftDisabledWithoutPredictor(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon := driftwatch.New(nil)
	st := mon.Stream("trainnet", "iter")
	for _, cfg := range []Config{
		{Workers: 2, LR: 0.05, Seed: 1, Drift: st},
		{Workers: 2, LR: 0.05, Seed: 1, PredictStep: func(int) float64 { return 1 }},
	} {
		if _, err := DataParallel(g, cfg, 2, task.Source(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Snapshot().Pairs; got != 0 {
		t.Errorf("half-configured drift feed observed %d pairs, want 0", got)
	}
}

// TestSlowdownProfileStretchesSteps: the slowdown profile injects its
// persistent straggler into the gradient closure, so measured step time
// jumps by ~SlowDelay from the onset step — and the drift stream fed
// from those measurements detects it while a clean run stays silent.
func TestSlowdownProfileStretchesSteps(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := faults.ByName("slowdown")
	if err != nil {
		t.Fatal(err)
	}
	onset := prof.Slowdowns[0]
	const steps = 10

	run := func(inj *faults.Injector) *driftwatch.Stream {
		t.Helper()
		mon := driftwatch.New(nil)
		st := mon.Stream("trainnet", "iter")
		cfg := Config{
			Workers: 2, LR: 0.05, Seed: 1,
			Faults: inj,
			Drift:  st,
			// A healthy-step estimate: the measured baseline is a couple of
			// ms of real compute; κ-calibration absorbs the exact offset.
			PredictStep: func(int) float64 { return 0.002 },
		}
		if _, err := DataParallel(g, cfg, steps, task.Source(2)); err != nil {
			t.Fatal(err)
		}
		return st
	}

	inj := mustInjector(t, 7, prof)
	t0 := time.Now()
	slowed := run(inj)
	elapsed := time.Since(t0)

	if got := inj.CountByClass()[faults.ClassSlow]; got != steps-onset {
		t.Errorf("slow events = %d, want %d (steps %d..%d)", got, steps-onset, onset, steps-1)
	}
	if minTotal := time.Duration(steps-onset) * prof.SlowDelay; elapsed < minTotal {
		t.Errorf("slowed run took %v, below the injected minimum %v", elapsed, minTotal)
	}
	snap := slowed.Snapshot()
	if snap.Events < 1 || snap.State != driftwatch.StateDrifting {
		t.Errorf("drift stream missed the slowdown: %+v", snap)
	}

	clean := run(nil)
	if snap := clean.Snapshot(); snap.Events != 0 {
		t.Errorf("clean run raised %d drift events: %+v", snap.Events, snap)
	}
}
