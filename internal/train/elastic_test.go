package train

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"convmeter/internal/allreduce"
	"convmeter/internal/faults"
)

// elasticConfig is the config the elastic tests share: injected faults
// on the channel ring. The tests that need the TCP ring move it there
// with withTCP.
func elasticConfig(inj *faults.Injector) Config {
	return Config{Workers: 3, LR: 0.1, Seed: 7, Faults: inj}
}

// withTCP moves cfg onto the TCP ring under the given op timeout and a
// two-attempt retry budget, so that a failing attempt ends quickly.
// Deadlines and retries are the TCP ring's alone: NewTrainer refuses
// them on the channel ring.
func withTCP(cfg Config, opTimeout time.Duration) Config {
	cfg.Transport, cfg.OpTimeout = TransportTCP, opTimeout
	cfg.Retry = allreduce.RetryPolicy{Attempts: 2, Backoff: time.Millisecond, Max: 5 * time.Millisecond}
	return cfg
}

func mustInjector(t *testing.T, seed int64, prof faults.Profile) *faults.Injector {
	t.Helper()
	inj, err := faults.New(seed, prof)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// closeEnough compares losses/checksums across runs that take different
// code paths (snapshot copies vs in-place reduction) but perform the
// identical arithmetic.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestElasticCrashAtStartMatchesReference: a worker crashing at step 0
// must leave a run indistinguishable from one that never had the worker —
// the elastic trainer's gradient renormalisation (scale 1/(N−1)) is what
// makes the two coincide.
func TestElasticCrashAtStartMatchesReference(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, batch := 6, 4

	cfg := elasticConfig(mustInjector(t, 3, faults.Profile{Crashes: map[int]int{2: 0}}))
	faulty, err := DataParallel(g, cfg, steps, task.Source(batch))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(faulty.Live); got != "[0 1]" {
		t.Fatalf("live set after crash = %v", faulty.Live)
	}

	// Reference: 2 workers from the start; the same (worker, step)-keyed
	// source hands workers 0 and 1 the identical batches.
	ref, err := DataParallel(g, Config{Workers: 2, LR: 0.1, Seed: 7}, steps, task.Source(batch))
	if err != nil {
		t.Fatal(err)
	}
	for i := range faulty.Losses {
		if !closeEnough(faulty.Losses[i], ref.Losses[i]) {
			t.Fatalf("step %d loss %g, reference %g", i, faulty.Losses[i], ref.Losses[i])
		}
	}
	if len(faulty.Checksums) != len(ref.Checksums) {
		t.Fatalf("%d survivors, reference has %d", len(faulty.Checksums), len(ref.Checksums))
	}
	for i := range faulty.Checksums {
		if !closeEnough(faulty.Checksums[i], ref.Checksums[i]) {
			t.Fatalf("survivor %d checksum %g, reference %g", i, faulty.Checksums[i], ref.Checksums[i])
		}
	}
}

// TestElasticMidRunCrashMatchesManualRemoval: a scheduled mid-run crash
// must be equivalent to pausing the run at that boundary and removing the
// worker by hand through the Trainer API.
func TestElasticMidRunCrashMatchesManualRemoval(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	crashStep, steps, batch := 2, 6, 4

	cfg := elasticConfig(mustInjector(t, 3, faults.Profile{Crashes: map[int]int{2: crashStep}}))
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := tr.Run(steps, task.Source(batch))
	if err != nil {
		t.Fatal(err)
	}

	refTr, err := NewTrainer(g, Config{Workers: 3, LR: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var refLosses []float64
	head, err := refTr.Run(crashStep, task.Source(batch))
	if err != nil {
		t.Fatal(err)
	}
	refLosses = append(refLosses, head.Losses...)
	if err := refTr.RemoveWorker(2); err != nil {
		t.Fatal(err)
	}
	tail, err := refTr.Run(steps-crashStep, task.Source(batch))
	if err != nil {
		t.Fatal(err)
	}
	refLosses = append(refLosses, tail.Losses...)

	for i := range faulty.Losses {
		if !closeEnough(faulty.Losses[i], refLosses[i]) {
			t.Fatalf("step %d loss %g, manual-removal reference %g", i, faulty.Losses[i], refLosses[i])
		}
	}
	refSums := tail.Checksums
	for i := range faulty.Checksums {
		if !closeEnough(faulty.Checksums[i], refSums[i]) {
			t.Fatalf("survivor %d checksum %g, reference %g", i, faulty.Checksums[i], refSums[i])
		}
	}
}

// TestElasticBlameRemovesFaultyWorker: persistent hard faults on one
// worker's TCP connections must get exactly that worker blamed and
// removed, after which the run completes on the survivors.
func TestElasticBlameRemovesFaultyWorker(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withTCP(elasticConfig(mustInjector(t, 9, faults.Profile{Drop: 1, Workers: []int{1}})), 50*time.Millisecond)
	res, err := DataParallel(g, cfg, 3, task.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Live); got != "[0 2]" {
		t.Fatalf("live set = %v, want worker 1 removed", res.Live)
	}
	spread := 0.0
	for _, c := range res.Checksums {
		spread = math.Max(spread, math.Abs(c-res.Checksums[0]))
	}
	if spread != 0 {
		t.Fatalf("survivors desynchronised: spread %g", spread)
	}
}

// TestElasticMinWorkersFloor: degradation must refuse to drop below
// minWorkers and surface a clean error instead: with every worker
// crashing at step 0, the last removal is refused.
func TestElasticMinWorkersFloor(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(mustInjector(t, 3, faults.Profile{Crashes: map[int]int{0: 0, 1: 0, 2: 0}}))
	_, err = DataParallel(g, cfg, 2, task.Source(4))
	if err == nil || !strings.Contains(err.Error(), "below minimum 1") {
		t.Fatalf("run should fail when crashes push below minWorkers, got %v", err)
	}
}

// TestNewTrainerTransportFaultsNeedTCP: transport faults, op deadlines
// and retries are the TCP ring's. NewTrainer refuses each
// transport-fault class, a nonzero OpTimeout and a nonzero Retry on the
// channel ring, naming TransportTCP, and accepts each on TCP; crash and
// slowdown schedules run on either transport.
func TestNewTrainerTransportFaultsNeedTCP(t *testing.T) {
	g := trainNet(t)
	for _, tc := range []struct {
		name      string
		prof      faults.Profile
		opTimeout time.Duration
		retry     allreduce.RetryPolicy
		onChan    bool
	}{
		{name: "delay", prof: faults.Profile{Delay: 0.1, MaxDelay: time.Millisecond}},
		{name: "drop", prof: faults.Profile{Drop: 0.1}},
		{name: "reset", prof: faults.Profile{Reset: 0.1}},
		{name: "corrupt", prof: faults.Profile{Corrupt: 0.1}},
		{name: "truncate", prof: faults.Profile{Truncate: 0.1}},
		{name: "op-timeout", opTimeout: 50 * time.Millisecond},
		{name: "retry", retry: allreduce.RetryPolicy{Attempts: 2}},
		{name: "crash", prof: faults.Profile{Crashes: map[int]int{1: 2}}, onChan: true},
		{name: "slowdown", prof: faults.Profile{Slowdowns: map[int]int{0: 1}, SlowDelay: time.Millisecond}, onChan: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Workers: 2, LR: 0.1, Seed: 1,
				Faults:    mustInjector(t, 1, tc.prof),
				OpTimeout: tc.opTimeout,
				Retry:     tc.retry,
			}
			_, err := NewTrainer(g, cfg)
			if tc.onChan && err != nil {
				t.Fatalf("TransportChan refused %s: %v", tc.name, err)
			}
			if !tc.onChan && (err == nil || !strings.Contains(err.Error(), "TransportTCP")) {
				t.Fatalf("TransportChan with %s: err = %v, want a rejection naming TransportTCP", tc.name, err)
			}
			cfg.Transport = TransportTCP
			if _, err := NewTrainer(g, cfg); err != nil {
				t.Fatalf("TransportTCP refused %s: %v", tc.name, err)
			}
		})
	}
}

// TestSourceGlobalRespreadsBatch: the global-batch source recomputes the
// per-device batch b = B/N from the live count.
func TestSourceGlobalRespreadsBatch(t *testing.T) {
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := 4
	src := task.SourceGlobal(12, func() int { return live })
	b, err := src(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Input.Batch; got != 3 {
		t.Fatalf("batch at N=4: %d, want 3", got)
	}
	live = 3
	b, err = src(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Input.Batch; got != 4 {
		t.Fatalf("batch at N=3: %d, want 4", got)
	}
	live = 100
	b, err = src(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Input.Batch; got != 1 {
		t.Fatalf("batch floor: %d, want 1", got)
	}
}

// TestJoinFirstError: the errgroup-style join waits for every goroutine
// and reports the first error.
func TestJoinFirstError(t *testing.T) {
	if err := join(8, func(int) error { return nil }); err != nil {
		t.Fatalf("all-success join: %v", err)
	}
	wantErr := errors.New("boom")
	ran := make([]bool, 8)
	err := join(8, func(i int) error {
		ran[i] = true
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("join err = %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("goroutine %d never ran; join must not short-circuit execution", i)
		}
	}
}

// TestElasticNoGoroutineLeak: a chaotic TCP run must leave no ring or
// trainer goroutines behind.
func TestElasticNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := trainNet(t)
	task, err := NewPrototypeTask(g, 3, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := faults.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	cfg := withTCP(elasticConfig(mustInjector(t, 7, prof)), 50*time.Millisecond)
	cfg.Workers = 4
	if _, err := DataParallel(g, cfg, 4, task.Source(4)); err != nil {
		t.Fatal(err)
	}
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
}
