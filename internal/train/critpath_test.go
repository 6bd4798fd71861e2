package train

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

// critpathRun trains a small net under a tracer and returns the
// critical-path report of its recorded trace. A non-nil profile
// schedules the injected faults; a TCP run bounds its ring's ops by a
// 500 ms timeout (the channel ring has no deadline).
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
	cfg := Config{Workers: 3, LR: 0.05, Seed: 1, Obs: o, Faults: inj}
	if transport == TransportTCP {
		cfg = withTCP(cfg, 500*time.Millisecond)
	}
	if _, err := DataParallel(g, cfg, steps, task.Source(3)); err != nil {
		t.Fatal(err)
	}
	return critpath.Analyze(o.Trc.Spans())
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

// TestAnalyzeMatchesPerStepWindows: for a trainer running alone, the
// report computed from the whole trace after the run is exactly what
// analyzing each step's recorded window as it finished gives. The
// trainer runs one Step at a time under a seeded straggler, on both
// transports, and the tracer's length before each step marks the
// windows.
func TestAnalyzeMatchesPerStepWindows(t *testing.T) {
	const steps = 4
	prof := faults.Profile{Slowdowns: map[int]int{0: 2}, SlowDelay: 80 * time.Millisecond}
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"chan", TransportChan},
		{"tcp", TransportTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := trainNet(t)
			task, err := NewPrototypeTask(g, 3, 0.3, 1)
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			cfg := Config{Workers: 3, LR: 0.05, Seed: 1, Obs: o, Faults: mustInjector(t, 7, prof)}
			if tc.transport == TransportTCP {
				cfg = withTCP(cfg, 500*time.Millisecond)
			}
			tr, err := NewTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			marks := []int{o.Trc.Len()}
			for s := 0; s < steps; s++ {
				if _, err := tr.Step(task.Source(3)); err != nil {
					t.Fatal(err)
				}
				marks = append(marks, o.Trc.Len())
			}
			spans := o.Trc.Spans()
			want := make([]critpath.StepAttribution, steps)
			for s := range want {
				want[s] = critpath.AnalyzeStep(s, spans[marks[s]:marks[s+1]])
			}
			got := critpath.Analyze(spans)
			if !reflect.DeepEqual(got.Steps, want) {
				t.Fatalf("Analyze over the whole trace:\n%+v\nper-step windows:\n%+v", got.Steps, want)
			}
			for _, att := range got.Steps {
				if len(att.Workers) != 3 || att.Compute <= 0 {
					t.Fatalf("step %d attributes %d workers, %g s compute: the windows held no step", att.Step, len(att.Workers), att.Compute)
				}
			}
		})
	}
}

// TestAnalyzeIsolatesConcurrentTrainers: two trainers, of 2 and 3
// workers, share one Obs and run at the same time, the 3-worker one
// with a straggler so that each of its steps spans several of the
// other's. Every attribution must list only its own trainer's workers,
// with each worker's compute time that of its own compute span: a step
// window cut by the tracer's length would also take in the other
// trainer's compute and ring spans.
func TestAnalyzeIsolatesConcurrentTrainers(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	sizes := map[string]int{"small": 2, "large": 3}
	stepsOf := map[string]int{"small": 6, "large": 3}
	roots := map[string]*obs.Span{}
	trainers := map[string]*Trainer{}
	for name, workers := range sizes {
		cfg := Config{Workers: workers, LR: 0.05, Seed: 1}
		if name == "large" {
			cfg.Faults = mustInjector(t, 7, faults.Profile{Slowdowns: map[int]int{0: 0}, SlowDelay: 80 * time.Millisecond})
		}
		roots[name] = o.Start("run:" + name)
		cfg.Obs = o.WithSpan(roots[name])
		tr, err := NewTrainer(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trainers[name] = tr
	}
	// The overlap check below needs a small-trainer step to begin inside
	// a large-trainer step, so the data sources make it happen: the
	// small trainer's step 0 waits until the large trainer's step 0 has
	// opened, and every large worker's step-0 batch waits until the
	// small trainer has begun step 1. Both waits fall in compute, before
	// the ring runs, and last about one small step.
	largeOpened, smallStep1 := make(chan struct{}), make(chan struct{})
	var openOnce, step1Once sync.Once
	await := func(ch <-chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("gate: %s never began", what)
		}
	}
	smallSrc, largeSrc := task.Source(2), task.Source(2)
	sources := map[string]DataSource{
		"small": func(w, step int) (Batch, error) {
			switch step {
			case 0:
				if err := await(largeOpened, "the large trainer's step 0"); err != nil {
					return Batch{}, err
				}
			case 1:
				step1Once.Do(func() { close(smallStep1) })
			}
			return smallSrc(w, step)
		},
		"large": func(w, step int) (Batch, error) {
			if step == 0 {
				openOnce.Do(func() { close(largeOpened) })
				if err := await(smallStep1, "the small trainer's step 1"); err != nil {
					return Batch{}, err
				}
			}
			return largeSrc(w, step)
		},
	}
	start := make(chan struct{})
	errs := make(chan error, len(trainers))
	for name, tr := range trainers {
		go func(name string, tr *Trainer) {
			<-start
			_, err := tr.Run(stepsOf[name], sources[name])
			errs <- err
		}(name, tr)
	}
	close(start)
	for range trainers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range roots {
		sp.End()
	}

	// Expected attributions from the span tree itself: each trainer's
	// step spans hang under its root, and each compute span directly
	// under its step span.
	spans := o.Trc.Spans()
	rootName := map[int64]string{}
	for _, s := range spans {
		if name, ok := strings.CutPrefix(s.Name, "run:"); ok {
			rootName[s.ID] = name
		}
	}
	type key struct {
		trainer string
		step    int
	}
	stepKey := map[int64]key{}
	var small, large []obs.SpanRecord // step spans per trainer
	for _, s := range spans {
		name, ok := rootName[s.Parent]
		if !ok || !strings.HasPrefix(s.Name, "step ") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(s.Name, "step "))
		if err != nil {
			t.Fatal(err)
		}
		stepKey[s.ID] = key{name, n}
		if name == "small" {
			small = append(small, s)
		} else {
			large = append(large, s)
		}
	}
	compute := map[key]map[int]float64{}
	for _, s := range spans {
		k, ok := stepKey[s.Parent]
		if !ok || s.Name != "compute" {
			continue
		}
		if compute[k] == nil {
			compute[k] = map[int]float64{}
		}
		compute[k][s.Worker] = s.Dur.Seconds()
	}
	// The test proves nothing unless the runs interleaved: some step of
	// the small trainer must start inside a step of the large one. The
	// gated data sources guarantee it; this checks the gate.
	overlapped := false
	for _, a := range small {
		for _, b := range large {
			if a.Start > b.Start && a.Start < b.Start+b.Dur {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Fatal("the two trainers' steps never overlapped")
	}

	rep := critpath.Analyze(spans)
	if want := stepsOf["small"] + stepsOf["large"]; len(rep.Steps) != want {
		t.Fatalf("%d step attributions, want %d", len(rep.Steps), want)
	}
	seen := map[key]bool{}
	for _, att := range rep.Steps {
		trainer := ""
		for name, n := range sizes {
			if len(att.Workers) == n {
				trainer = name
			}
		}
		k := key{trainer, att.Step}
		if trainer == "" || seen[k] || compute[k] == nil {
			t.Fatalf("step %d lists workers %+v: no trainer's step of that size is left", att.Step, att.Workers)
		}
		seen[k] = true
		for i, w := range att.Workers {
			if w.Worker != i {
				t.Fatalf("%s step %d lists workers %+v, want 0..%d", trainer, att.Step, att.Workers, sizes[trainer]-1)
			}
			if want := compute[k][i]; w.Compute != want {
				t.Fatalf("%s step %d worker %d: compute %g s, want its own compute span's %g s", trainer, att.Step, i, w.Compute, want)
			}
		}
	}
}
