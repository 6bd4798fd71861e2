package train

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"convmeter/internal/allreduce"
	"convmeter/internal/faults"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

// critpathRun trains a small net with the critical-path engine wired in
// and returns the tracker's report. A non-nil profile schedules the
// injected faults; OpTimeout keeps the trainer on the resilient
// transport paths (where the per-op spans live) even on a clean run.
func critpathRun(t *testing.T, transport Transport, prof *faults.Profile, steps int) critpath.Report {
	t.Helper()
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inj *faults.Injector
	if prof != nil {
		inj = mustInjector(t, 7, *prof)
	}
	o := obs.New()
	tracker := new(critpath.Tracker)
	cfg := Config{
		Workers: 3, LR: 0.05, Seed: 1,
		Obs:       o,
		Transport: transport,
		Faults:    inj,
		OpTimeout: 500 * time.Millisecond,
		Retry:     allreduce.RetryPolicy{Attempts: 2, Backoff: time.Millisecond, Max: 5 * time.Millisecond},
		Crit:      tracker,
	}
	if _, err := DataParallel(g, cfg, steps, task.Source(3)); err != nil {
		t.Fatal(err)
	}
	return tracker.Report()
}

// verifyBlame checks one run-plus-replay pair of a seeded-straggler
// scenario: every slowed step wait-dominated with worker 0 named and at
// least one full delay of caused idle, every slowed step's verdict
// identical across the replay, no earlier step blamed in either run.
// Returns the violations instead of failing, so the caller can retry the
// whole scenario when the host's scheduler drowned the injected signal.
func verifyBlame(t *testing.T, rep, rep2 critpath.Report, steps, onset int, delay time.Duration) []string {
	t.Helper()
	var problems []string
	if len(rep.Steps) != steps {
		return []string{fmt.Sprintf("%d step attributions, want %d", len(rep.Steps), steps)}
	}
	for _, att := range rep.Steps {
		if err := critpath.Validate(att); err != nil {
			t.Fatal(err) // malformed attributions are a bug, never noise
		}
		if att.Step < onset {
			continue
		}
		if att.Dominant != critpath.ClassWait {
			problems = append(problems, fmt.Sprintf("slowed step %d dominant = %q, want wait (%+v)", att.Step, att.Dominant, att))
		}
		if att.Blame != 0 {
			problems = append(problems, fmt.Sprintf("slowed step %d blames worker %d, want straggler 0", att.Step, att.Blame))
		}
		if att.BlameWait < delay.Seconds() {
			problems = append(problems, fmt.Sprintf("slowed step %d blame_wait = %gs, want >= one straggler delay (%v)",
				att.Step, att.BlameWait, delay))
		}
	}
	// Seed replay: the blame sequence is a pure function of the seeded
	// schedule, not of host timing. Before the onset nothing is injected,
	// so wait vs compute there is decided by host timing: those steps
	// must only blame no one in both runs.
	for i := range rep.Steps {
		if i >= len(rep2.Steps) {
			problems = append(problems, fmt.Sprintf("replay produced %d steps, want %d", len(rep2.Steps), len(rep.Steps)))
			break
		}
		a, b := rep.Steps[i], rep2.Steps[i]
		diverged := a.Step != b.Step || a.Blame != b.Blame || a.Dominant != b.Dominant
		if a.Step < onset {
			diverged = a.Step != b.Step || a.Blame != -1 || b.Blame != -1
		}
		if diverged {
			problems = append(problems, fmt.Sprintf("replay diverged at step %d: (%q, blame %d) vs (%q, blame %d)",
				a.Step, a.Dominant, a.Blame, b.Dominant, b.Blame))
		}
	}
	return problems
}

// TestCritpathBlamesSlowWorker: a seeded persistent straggler must be
// deterministically blamed — on both transports, every slowed step's
// attribution is wait-dominated with the slowed worker named, a second
// run with the same seed reproduces the identical blame sequence, and
// the transport goroutines do not leak. The blame property is
// signal-over-noise: a race-instrumented oversubscribed host can stall
// a compute goroutine for hundreds of milliseconds, which genuinely —
// and correctly — reads as a compute-dominated step. Such stalls are
// rare, so the scenario gets a bounded number of full re-runs before a
// violation counts as a failure.
func TestCritpathBlamesSlowWorker(t *testing.T) {
	const (
		steps    = 5
		onset    = 2
		attempts = 3
	)
	// SlowDelay dwarfs the net's ~ms compute even under -race, so the
	// barrier idle it causes must dominate every slowed step.
	prof := &faults.Profile{
		Slowdowns: map[int]int{0: onset},
		SlowDelay: 80 * time.Millisecond,
	}
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"chan", TransportChan},
		{"tcp", TransportTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var baseline int
			var problems []string
			for attempt := 1; attempt <= attempts; attempt++ {
				rep := critpathRun(t, tc.transport, prof, steps)
				if attempt == 1 {
					// Baseline after the first run: the exec layer lazily
					// starts a persistent worker pool on first use, which is
					// shared state, not a leak. Later runs must return here.
					baseline = runtime.NumGoroutine()
				}
				rep2 := critpathRun(t, tc.transport, prof, steps)
				problems = verifyBlame(t, rep, rep2, steps, onset, prof.SlowDelay)
				if len(problems) == 0 {
					break
				}
				if attempt < attempts {
					t.Logf("attempt %d hit scheduler noise, retrying: %s", attempt, problems[0])
				}
			}
			for _, p := range problems {
				t.Error(p)
			}
			// The transport workers must all have drained; poll briefly —
			// goroutine teardown is asynchronous.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					n := runtime.Stack(buf, true)
					t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
						runtime.NumGoroutine(), baseline, buf[:n])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestCritpathCleanRunNoBlame: without injected faults no worker may be
// blamed on either transport — natural scheduler jitter must not read
// as a straggler. Like the blame test, the property is
// signal-over-noise (an extreme host stall genuinely mimics a
// straggler), so the scenario gets a bounded number of re-runs.
func TestCritpathCleanRunNoBlame(t *testing.T) {
	const attempts = 3
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"chan", TransportChan},
		{"tcp", TransportTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var problems []string
			for attempt := 1; attempt <= attempts; attempt++ {
				rep := critpathRun(t, tc.transport, nil, 4)
				problems = problems[:0]
				if len(rep.Steps) != 4 {
					t.Fatalf("%d step attributions, want 4", len(rep.Steps))
				}
				var compute float64
				for _, att := range rep.Steps {
					if err := critpath.Validate(att); err != nil {
						t.Fatal(err)
					}
					if att.Blame != -1 {
						problems = append(problems, fmt.Sprintf("clean step %d blames worker %d (%+v)", att.Step, att.Blame, att))
					}
					compute += att.Compute
				}
				if compute <= 0 {
					t.Fatal("clean run attributed zero compute")
				}
				if len(problems) == 0 {
					break
				}
				if attempt < attempts {
					t.Logf("attempt %d hit scheduler noise, retrying: %s", attempt, problems[0])
				}
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}
