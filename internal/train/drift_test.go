package train

import (
	"math"
	"testing"
	"time"

	"convmeter/internal/driftwatch"
	"convmeter/internal/faults"
)

// TestStepFeedsDriftPairs: Run records one measurement per completed
// step, the measured side of the drift check made after the run: a
// finite positive wall-clock time and the number of workers that
// computed the step, which follows the live set across a crash.
func TestStepFeedsDriftPairs(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers []int
	}{
		{"steady", Config{Workers: 2, LR: 0.05, Seed: 1}, []int{2, 2, 2, 2, 2, 2}},
		{"crash", elasticConfig(mustInjector(t, 3, faults.Profile{Crashes: map[int]int{1: 3}})), []int{3, 3, 3, 2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTrainer(g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Run(steps, task.Source(2))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Steps) != steps {
				t.Fatalf("%d step records, want %d", len(res.Steps), steps)
			}
			for i, rec := range res.Steps {
				if rec.Workers != tc.workers[i] {
					t.Errorf("step %d: record names %d workers, want %d", i, rec.Workers, tc.workers[i])
				}
				if !(rec.Seconds > 0) || math.IsInf(rec.Seconds, 0) {
					t.Errorf("step %d: recorded %g s", i, rec.Seconds)
				}
			}
		})
	}
}

// TestSlowdownProfileStretchesSteps: the slowdown profile injects its
// persistent straggler into the gradient closure, so measured step time
// jumps by ~SlowDelay from the onset step — and a drift stream fed from
// the run's step record detects it while a clean run stays silent.
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

	run := func(inj *faults.Injector) driftwatch.Snapshot {
		t.Helper()
		cfg := Config{Workers: 2, LR: 0.05, Seed: 1, Faults: inj}
		res, err := DataParallel(g, cfg, steps, task.Source(2))
		if err != nil {
			t.Fatal(err)
		}
		st := driftwatch.NewStream()
		for _, rec := range res.Steps {
			// A healthy-step estimate: the measured baseline is a couple
			// of ms of real compute; κ-calibration absorbs the exact
			// offset.
			st.Observe(0.002, rec.Seconds)
		}
		return st.Snapshot()
	}

	inj := mustInjector(t, 7, prof)
	t0 := time.Now()
	snap := run(inj)
	elapsed := time.Since(t0)

	if got := inj.CountByClass()[faults.ClassSlow]; got != steps-onset {
		t.Errorf("slow events = %d, want %d (steps %d..%d)", got, steps-onset, onset, steps-1)
	}
	if minTotal := time.Duration(steps-onset) * prof.SlowDelay; elapsed < minTotal {
		t.Errorf("slowed run took %v, below the injected minimum %v", elapsed, minTotal)
	}
	if snap.Events < 1 || snap.State != driftwatch.StateDrifting {
		t.Errorf("drift stream missed the slowdown: %+v", snap)
	}

	if clean := run(nil); clean.Events != 0 {
		t.Errorf("clean run raised %d drift events: %+v", clean.Events, clean)
	}
}
