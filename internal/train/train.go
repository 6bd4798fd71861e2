// Package train is a working data-parallel trainer — the real counterpart
// of the distributed-training pipeline the paper models: N worker
// replicas (one goroutine each) compute gradients on their own data
// shards with the real execution engine (internal/exec), synchronise them
// with the real ring all-reduce (internal/allreduce), and apply identical
// SGD or Adam updates, exactly the Horovod data-parallel semantics of §2.
// The tests verify the properties the paper's performance model
// presumes: replicas stay bit-synchronised, and N-way data parallelism
// computes the same update as one large batch.
//
// A step moves each replica's gradient as one contiguous vector, the
// role Horovod's tensor-fusion buffer plays: Gradients accumulates into
// the replica's persistent gradient vector, the ring reduces that vector
// in place, and the update averages and steps in one pass over it and
// the parameter vector. Only the TCP ring, the one that can fail,
// reduces copies, one snapshot per attempt, so that a failed ring never
// poisons the originals.
//
// The trainer is elastic, in the style of the fault-tolerant Horovod
// deployments the paper's measurements come from: when a worker crashes
// at a step boundary (injected via internal/faults, on either
// transport) or the TCP ring declares it dead after all-reduce retry
// exhaustion, the ring re-forms with N−1 members,
// gradient averaging renormalises to the survivor count, and data
// sources built with SourceGlobal recompute the per-device batch
// b = B/N — keeping the N-dependence of the paper's T_grad model
// observable across failures.
//
// The trainer only trains and records. Run's Result carries each step's
// wall-clock time and the number of workers that computed it, and a
// tracing Obs holds one "step N" span tree per step. The checks that
// judge a run read those after it ends: internal/driftwatch compares
// the step times with a model's predictions, and critpath.Analyze
// attributes each step's time to compute, communication or waiting.
package train

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"convmeter/internal/allreduce"
	"convmeter/internal/exec"
	"convmeter/internal/faults"
	"convmeter/internal/graph"
	"convmeter/internal/obs"
)

// Batch is one worker's training micro-batch.
type Batch struct {
	Input  *exec.Tensor
	Labels []int
}

// DataSource supplies each worker's batch for a step.
type DataSource func(worker, step int) (Batch, error)

// Optimizer selects the parameter-update rule.
type Optimizer int

// Available optimizers.
const (
	SGD Optimizer = iota
	// Adam is the optimizer of the paper's training setup ("Adam as the
	// optimizer method").
	Adam
)

// Transport selects the gradient-synchronisation transport.
type Transport int

// Available transports. TransportChan runs the ring over in-process
// channels, which cannot fail; TransportTCP runs it over real loopback
// sockets, where dropped and reset connections are physically possible,
// so only it takes transport faults, deadlines and retries.
const (
	TransportChan Transport = iota
	TransportTCP
)

// Config controls a data-parallel run.
type Config struct {
	Workers   int
	LR        float32 // learning rate
	Optimizer Optimizer
	Seed      int64 // weight initialisation seed (shared by all replicas)
	// Obs, when non-nil, receives a span tree: one "step N" span per
	// training step, with the replicas' "fwd"/"bwd" kernel spans and the
	// all-reduce "grad" span nested underneath.
	Obs *obs.Obs

	// Transport selects the all-reduce transport (default TransportChan).
	// The channel ring reduces the replicas' vectors in place; a TCP run
	// goes through the resilient ring (RingTCPOpts), with per-attempt
	// snapshots, step retries and blame.
	Transport Transport
	// Faults, when non-nil, schedules worker crashes and slowdowns at
	// step boundaries on either transport. Its transport faults (delay,
	// drop, reset, corrupt, truncate) hit the TCP ring's connections;
	// NewTrainer rejects a profile with any of them on TransportChan.
	Faults *faults.Injector
	// OpTimeout bounds one chunk write or read on the TCP ring; 0 keeps
	// the transport default. The channel ring has no deadline.
	OpTimeout time.Duration
	// Retry bounds the TCP ring's transport-level retries (read
	// timeouts, ring dials).
	Retry allreduce.RetryPolicy
}

// Elastic degradation limits.
const (
	// stepRetries is how many times one step's all-reduce is attempted
	// over the same live set before a worker is blamed and declared dead.
	stepRetries = 2
	// minWorkers is the floor below which elastic degradation refuses to
	// drop further members and the step fails instead.
	minWorkers = 1
)

// Result reports a training run.
type Result struct {
	// Losses holds the per-step mean loss across live workers.
	Losses []float64
	// Checksums holds each live worker's weight digest after the final
	// step; data-parallel training is correct only if they are all equal.
	Checksums []float64
	// Live lists the surviving workers' original ids in ascending order.
	Live []int
	// Steps records each step's wall-clock time and worker count, the
	// measured side of a prediction check made after the run.
	Steps []StepRecord
}

// StepRecord is one completed step's measurement.
type StepRecord struct {
	// Seconds is the step's wall-clock time: compute, all-reduce and
	// update.
	Seconds float64
	// Workers is the number of workers that computed the step's
	// gradients: the live count after the step's crash boundary, before
	// any mid-sync degradation.
	Workers int
}

// Trainer is a stateful elastic data-parallel trainer. Create one with
// NewTrainer, drive it with Step/Run, and shrink it — explicitly via
// RemoveWorker or implicitly via fault handling — without losing the
// surviving replicas' state.
type Trainer struct {
	g        *graph.Graph
	cfg      Config
	replicas []*exec.Executor // indexed by original worker id
	adam     []*exec.AdamState
	live     []int // original ids, ascending
	step     int
}

// NewTrainer builds the replica set: every worker starts from the same
// seed, so all replicas hold identical weights.
func NewTrainer(g *graph.Graph, cfg Config) (*Trainer, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("train: %d workers", cfg.Workers)
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("train: non-positive learning rate %g", cfg.LR)
	}
	if p := cfg.Faults.Profile(); cfg.Transport != TransportTCP &&
		(p.Delay > 0 || p.Drop > 0 || p.Reset > 0 || p.Corrupt > 0 || p.Truncate > 0) {
		return nil, fmt.Errorf("train: transport faults (delay, drop, reset, corrupt, truncate) need TransportTCP; the channel ring takes only crash and slowdown schedules")
	}
	t := &Trainer{g: g, cfg: cfg}
	t.replicas = make([]*exec.Executor, cfg.Workers)
	t.adam = make([]*exec.AdamState, cfg.Workers)
	for w := range t.replicas {
		e, err := exec.NewExecutor(g, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.replicas[w] = e
		if cfg.Optimizer == Adam {
			t.adam[w] = e.NewAdamState()
		}
		t.live = append(t.live, w)
	}
	return t, nil
}

// Live returns the surviving workers' original ids in ascending order.
func (t *Trainer) Live() []int {
	return append([]int(nil), t.live...)
}

// LiveCount returns the number of surviving workers. Data sources built
// around a global batch call this per step to recompute b = B/N.
func (t *Trainer) LiveCount() int { return len(t.live) }

// StepIndex returns the index of the next step to run.
func (t *Trainer) StepIndex() int { return t.step }

// Checksums returns the live replicas' weight digests in Live() order.
func (t *Trainer) Checksums() []float64 {
	out := make([]float64, 0, len(t.live))
	for _, w := range t.live {
		out = append(out, t.replicas[w].WeightChecksum())
	}
	return out
}

// RemoveWorker declares a worker dead: the ring re-forms without it and
// subsequent gradient averages renormalise over the survivors.
func (t *Trainer) RemoveWorker(id int) error {
	for i, w := range t.live {
		if w == id {
			if len(t.live)-1 < minWorkers {
				return fmt.Errorf("train: removing worker %d leaves %d live, below minimum %d",
					id, len(t.live)-1, minWorkers)
			}
			// Copy-on-write: Step holds snapshots of the live slice across
			// removals, so the old backing array must stay intact.
			next := make([]int, 0, len(t.live)-1)
			next = append(next, t.live[:i]...)
			next = append(next, t.live[i+1:]...)
			t.live = next
			return nil
		}
	}
	return fmt.Errorf("train: worker %d is not live", id)
}

// join runs fn(0..n-1) concurrently and returns the first error —
// errgroup-style first-error capture, so a failed worker fails the step
// deterministically instead of contributing a partial result.
func join(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				once.Do(func() { first = err })
			}
		}(i)
	}
	wg.Wait()
	return first
}

// Step runs one data-parallel training step over the live workers:
// crash boundaries, gradient computation, fault-tolerant all-reduce with
// elastic degradation, renormalised averaging, and the optimizer update.
// It returns the mean loss across the workers that contributed.
func (t *Trainer) Step(data DataSource) (float64, error) {
	loss, _, err := t.runStep(data)
	return loss, err
}

// runStep is Step, also returning the step's measurement for Run's
// record.
func (t *Trainer) runStep(data DataSource) (float64, StepRecord, error) {
	step := t.step
	// Crash boundary: scheduled deaths happen before the step's compute.
	for _, w := range t.Live() {
		if t.cfg.Faults.CrashAt(w, step) {
			if err := t.RemoveWorker(w); err != nil {
				return 0, StepRecord{}, fmt.Errorf("train: crash of worker %d at step %d: %w", w, step, err)
			}
		}
	}
	live := t.live
	n := len(live)
	if n == 0 {
		return 0, StepRecord{}, fmt.Errorf("train: no live workers at step %d", step)
	}

	stepSp := t.cfg.Obs.Start("step " + strconv.Itoa(step))
	stepObs := t.cfg.Obs.WithSpan(stepSp)
	stepT0 := time.Now()
	// The record names the worker count the step *computes* with;
	// mid-sync degradation changes the survivors, not the batches
	// already drawn at b = B/N.
	rec := StepRecord{Workers: n}
	defer stepSp.End()

	// Local gradients, concurrently, with first-error capture. Each
	// vector is the replica's own gradient vector, valid until its next
	// Gradients call.
	losses := make([]float64, n)
	vectors := make([][]float32, n)
	if err := join(n, func(i int) error {
		w := live[i]
		// Per-worker "compute" span, tagged with the worker's original id
		// so the tracer can attribute it — and the fwd/bwd kernel spans
		// nested under it — when reconstructing the step's cross-worker
		// DAG. It opens before the straggler sleep: injected compute
		// latency must be charged to compute.
		perObs := stepObs.WithWorker(w)
		csp := perObs.Start("compute")
		defer csp.End()
		if t.cfg.Obs != nil {
			t.replicas[w].SetObs(perObs.WithSpan(csp))
		}
		// Persistent-straggler injection: a slowed worker pays its extra
		// compute latency here, before the ring, stretching the measured
		// step time that Run records.
		if d := t.cfg.Faults.SlowAt(w, step); d > 0 {
			time.Sleep(d)
		}
		batch, err := data(w, step)
		if err != nil {
			return fmt.Errorf("train: worker %d step %d data: %w", w, step, err)
		}
		loss, grads, err := t.replicas[w].Gradients(batch.Input, batch.Labels)
		if err != nil {
			return fmt.Errorf("train: worker %d step %d gradients: %w", w, step, err)
		}
		losses[i], vectors[i] = loss, grads
		return nil
	}); err != nil {
		return 0, StepRecord{}, err
	}

	// Gradient synchronisation with elastic degradation.
	reduced, err := t.syncGradients(stepObs, step, live, vectors)
	if err != nil {
		return 0, StepRecord{}, err
	}
	// Dead workers may have been dropped during sync; keep survivors only.
	if len(t.live) != n {
		idx := make(map[int]int, n)
		for i, w := range live {
			idx[w] = i
		}
		live = t.live
		kept := make([][]float32, 0, len(live))
		keptLosses := make([]float64, 0, len(live))
		for _, w := range live {
			kept = append(kept, reduced[idx[w]])
			keptLosses = append(keptLosses, losses[idx[w]])
		}
		reduced, losses = kept, keptLosses
		n = len(live)
	}

	// Average and apply in one pass per replica — every live replica
	// performs the identical update, renormalised over the survivor
	// count. The update cannot fail.
	scale := float32(1) / float32(n)
	_ = join(n, func(i int) error {
		w := live[i]
		if t.cfg.Optimizer == Adam {
			t.replicas[w].ApplyAdam(t.adam[w], reduced[i], scale, t.cfg.LR)
		} else {
			t.replicas[w].ApplySGD(reduced[i], scale, t.cfg.LR)
		}
		return nil
	})

	mean := 0.0
	for _, l := range losses {
		mean += l
	}
	mean /= float64(n)
	rec.Seconds = time.Since(stepT0).Seconds()
	t.step++
	return mean, rec, nil
}

// syncGradients all-reduces the live workers' gradient vectors. It
// returns the reduced (summed) vectors indexed like the input. The
// channel ring cannot fail, so it reduces the replicas' own vectors in
// place. The TCP ring reduces snapshots, so that a failed attempt never
// poisons the originals, with retry and blame-based elastic
// degradation; entries of workers that died mid-sync are stale and must
// be discarded by the caller.
func (t *Trainer) syncGradients(stepObs *obs.Obs, step int, live []int, vectors [][]float32) ([][]float32, error) {
	gradSp := stepObs.Start("grad")
	defer gradSp.End()
	// Per-op transport spans (ar.send/ar.wait/ar.recv) nest under grad.
	gradObs := stepObs.WithSpan(gradSp)

	// The live ids keep the ring's spans attributed to the original
	// workers after a crash.
	if t.cfg.Transport != TransportTCP {
		return vectors, allreduce.RingOpts(vectors, allreduce.Options{Obs: gradObs, WorkerIDs: live})
	}

	index := make(map[int]int, len(live))
	for i, w := range live {
		index[w] = i
	}
	attempt := uint64(0)
	remaining := stepRetries
	for {
		ids := t.Live()
		snaps := make([][]float32, len(ids))
		for i, w := range ids {
			snaps[i] = append([]float32(nil), vectors[index[w]]...)
		}
		opts := allreduce.Options{
			OpTimeout: t.cfg.OpTimeout,
			Retry:     t.cfg.Retry,
			Faults:    t.cfg.Faults,
			Obs:       gradObs,
			WorkerIDs: ids,
			// Distinct fault-decision space per (training step, attempt):
			// a retried all-reduce draws fresh faults, deterministically.
			SeqBase: uint64(step)<<24 | attempt<<12,
		}
		err := allreduce.RingTCPOpts(snaps, opts)
		if err == nil {
			out := make([][]float32, len(vectors))
			for i, w := range ids {
				out[index[w]] = snaps[i]
			}
			return out, nil
		}
		attempt++
		remaining--
		if remaining > 0 {
			time.Sleep(t.cfg.Retry.StepBackoff(int(attempt), uint64(step)))
			continue
		}
		// Retry budget exhausted over this live set: declare the blamed
		// worker dead, re-form the ring with N−1 members, and start a
		// fresh budget. Shrinking strictly bounds the loop.
		blamed, ok := allreduce.Blame(err)
		if !ok {
			return nil, fmt.Errorf("train: step %d all-reduce failed without blame: %w", step, err)
		}
		if rmErr := t.RemoveWorker(blamed); rmErr != nil {
			return nil, fmt.Errorf("train: step %d all-reduce failed (%v); cannot degrade: %w", step, err, rmErr)
		}
		remaining = stepRetries
	}
}

// Run executes `steps` training steps and reports the loss curve, each
// step's wall-clock time and worker count, and the final replica
// checksums.
func (t *Trainer) Run(steps int, data DataSource) (*Result, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("train: %d steps", steps)
	}
	res := &Result{}
	for s := 0; s < steps; s++ {
		loss, rec, err := t.runStep(data)
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, loss)
		res.Steps = append(res.Steps, rec)
	}
	res.Checksums = t.Checksums()
	res.Live = t.Live()
	return res, nil
}

// DataParallel trains the graph for the given number of steps. All
// replicas start from the same seed (identical weights), compute local
// gradients concurrently, average them with ring all-reduce, and step.
func DataParallel(g *graph.Graph, cfg Config, steps int, data DataSource) (*Result, error) {
	t, err := NewTrainer(g, cfg)
	if err != nil {
		return nil, err
	}
	if steps <= 0 {
		return nil, fmt.Errorf("train: %d steps", steps)
	}
	return t.Run(steps, data)
}

// PrototypeTask builds a learnable synthetic classification task: each
// class has a fixed random prototype tensor; samples are the class
// prototype plus Gaussian noise. A small CNN separates the classes within
// a few SGD steps.
type PrototypeTask struct {
	protos  []*exec.Tensor
	noise   float32
	classes int
	shape   graph.Shape
}

// NewPrototypeTask creates a task over the graph's input shape.
func NewPrototypeTask(g *graph.Graph, classes int, noise float32, seed int64) (*PrototypeTask, error) {
	in, err := g.InputShape()
	if err != nil {
		return nil, err
	}
	if classes < 2 {
		return nil, fmt.Errorf("train: need >=2 classes, got %d", classes)
	}
	rng := rand.New(rand.NewSource(seed))
	task := &PrototypeTask{noise: noise, classes: classes, shape: in}
	for c := 0; c < classes; c++ {
		p := exec.NewTensor(1, in)
		for i := range p.Data {
			p.Data[i] = float32(rng.NormFloat64())
		}
		task.protos = append(task.protos, p)
	}
	return task, nil
}

// Source returns a DataSource producing batchPerWorker samples per worker
// per step, deterministically derived from (worker, step).
func (t *PrototypeTask) Source(batchPerWorker int) DataSource {
	return t.sized(func(int, int) int { return batchPerWorker })
}

// SourceGlobal returns a DataSource that holds the global batch roughly
// constant under elastic degradation: each live worker draws
// b = max(1, globalBatch / live()) samples, so when the ring shrinks the
// per-device batch grows — the recomputation the paper's T_grad model
// needs to keep its N-dependence observable.
func (t *PrototypeTask) SourceGlobal(globalBatch int, live func() int) DataSource {
	return t.sized(func(int, int) int {
		n := live()
		if n <= 0 {
			return 0
		}
		b := globalBatch / n
		if b < 1 {
			b = 1
		}
		return b
	})
}

// sized builds the deterministic sampler around a per-call batch size.
func (t *PrototypeTask) sized(batchFor func(worker, step int) int) DataSource {
	return func(worker, step int) (Batch, error) {
		batch := batchFor(worker, step)
		if batch <= 0 {
			return Batch{}, fmt.Errorf("train: batch %d", batch)
		}
		rng := rand.New(rand.NewSource(int64(worker)*1_000_003 + int64(step)*7919 + 17))
		in := exec.NewTensor(batch, t.shape)
		labels := make([]int, batch)
		n := int(t.shape.Elems())
		for b := 0; b < batch; b++ {
			l := rng.Intn(t.classes)
			labels[b] = l
			dst := in.Data[b*n : (b+1)*n]
			src := t.protos[l].Data
			for i := range dst {
				dst[i] = src[i] + t.noise*float32(rng.NormFloat64())
			}
		}
		return Batch{Input: in, Labels: labels}, nil
	}
}
