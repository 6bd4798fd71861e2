package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"convmeter/internal/allreduce"
	"convmeter/internal/exec"
	"convmeter/internal/experiments"
	"convmeter/internal/graph"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/obs"
	"convmeter/internal/train"
)

// workload is one benchmark workload as a segment drives it. Every op
// belongs to a request class; a cycle runs each class once, in an
// order drawn from the seed.
type workload interface {
	// classes describes the request classes.
	classes() []classInfo
	// warmup runs the untimed first work of a fresh process on fixed,
	// seed-independent inputs and checks it against the golden output.
	warmup() error
	// prepare builds the inputs of an op of class c, untimed.
	prepare(c int)
	// call is the timed call into the layers under test.
	call() error
	// check verifies the outputs of the op just called, untimed, and
	// returns a fingerprint of them ("" where none is kept). Segments
	// of one seed run the same ops, so fingerprints must agree.
	check() (string, error)
	// finish runs the end-of-segment checks.
	finish() error
}

// classInfo describes one request class: its work items and the
// computed work its op does in each layer.
type classInfo struct {
	Name  string  `json:"name"`
	Items float64 `json:"items"`
	// Replicas is the number of executors running the class's forward
	// pass concurrently (1 for infer, the worker count for train).
	Replicas float64 `json:"replicas"`
	// ConvFLOP and FwdFLOP are the forward FLOPs of the conv2d nodes and
	// of all nodes; ConvBytes the bytes the conv2d nodes read and write
	// (inputs, weights, outputs, float32), all summed over replicas.
	ConvFLOP  float64 `json:"conv_flop"`
	FwdFLOP   float64 `json:"fwd_flop"`
	ConvBytes float64 `json:"conv_bytes"`
	// BusBytes is what one all-reduce of the class moves per worker:
	// 2(N-1)/N of the payload.
	BusBytes float64 `json:"bus_bytes"`
}

// setupTimes splits a segment's preparation.
type setupTimes struct {
	BuildMs float64 // models.Build and metrics: graph construction and counts
	InitMs  float64 // executors, trainers and buffers: state initialisation
}

const (
	// goldenSeed seeds the committed golden outputs and the inference
	// weights (the served model is fixed; the requests vary).
	goldenSeed = 1
	imgSize    = 32
	// ringWorkers is the all-reduce and DAG worker count everywhere.
	ringWorkers = 2
	// trainBatch is the per-worker training batch.
	trainBatch = 2
	// relTol bounds the relative L2 error of inference outputs against a
	// reference: loose enough for a reordered float32 summation.
	relTol = 1e-4
	// lossTol bounds the relative error of golden training losses.
	lossTol = 1e-6
)

var (
	inferModels  = []string{"resnet18", "mobilenet_v2", "squeezenet1_1", "efficientnet_b0"}
	inferBatches = []int{1, 4}
	trainModel   = "squeezenet1_1"
	// reproduceExcluded are left out of the reproduce workload: their
	// compute is measured by infer and train, their output depends on
	// wall-clock time, and exttrainfaults is dominated by injected sleeps.
	reproduceExcluded = map[string]bool{"extreal": true, "exttrainreal": true, "exttrainfaults": true}
)

// newWorkload builds a workload's state. o, when non-nil, is attached
// to every layer through its public telemetry hook.
func newWorkload(name string, seed int64, o *obs.Obs, st *setupTimes) (workload, error) {
	switch name {
	case "infer":
		return newInfer(seed, o, st)
	case "train":
		return newTrain(seed, o, st)
	case "sync":
		return newSync(seed, o, st)
	case "reproduce":
		return newReproduce(seed, o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// buildModel builds a zoo model at imgSize with its metrics.
func buildModel(name string) (*graph.Graph, metrics.Metrics, error) {
	g, err := models.Build(name, imgSize)
	if err != nil {
		return nil, metrics.Metrics{}, err
	}
	m, err := metrics.FromGraph(g)
	if err != nil {
		return nil, metrics.Metrics{}, err
	}
	return g, m, nil
}

// forwardWork returns the conv2d FLOPs, all FLOPs and conv2d bytes of
// one forward pass at batch b.
func forwardWork(g *graph.Graph, b int) (convFLOP, fwdFLOP, convBytes float64) {
	for i, n := range g.Nodes {
		f := float64(g.NodeFLOPs(i)) * float64(b)
		fwdFLOP += f
		if n.Op.Kind() == "conv2d" {
			convFLOP += f
			elems := float64(g.NodeInputElems(i)+n.Out.Elems())*float64(b) + float64(n.Op.Params())
			convBytes += 4 * elems
		}
	}
	return convFLOP, fwdFLOP, convBytes
}

// relL2 returns ||got-want|| / ||want||.
func relL2(got, want []float32) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var d, n float64
	for i := range got {
		e := float64(got[i]) - float64(want[i])
		d += e * e
		n += float64(want[i]) * float64(want[i])
	}
	if n == 0 {
		return math.Sqrt(d)
	}
	return math.Sqrt(d / n)
}

func allFinite(v []float32) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}

// fingerprint hashes an op's output bytes.
func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

func floatBytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		u := math.Float32bits(x)
		b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	}
	return b
}

// ---- infer ----

// inferModel is one served model: its executor, the golden image and
// the images of batch-1 requests awaiting their cross-check.
type inferModel struct {
	name    string
	e       *exec.Executor
	gold    *exec.Tensor
	goldOut []float32
	pending []pendingImage
}

// pendingImage is a batch-1 request's image and output. A later
// batch-4 request carries the image in one of its rows, whose output
// must match: batch rows are independent.
type pendingImage struct{ img, out []float32 }

// inferWL runs Executor.Run on a mix of models at batch 1 and 4. Every
// request carries fresh seeded images, so no result can be reused; row
// 0 of a batch-4 request is the golden image, checked against the
// golden logits, and rows 1-3 replay earlier batch-1 images.
type inferWL struct {
	ms  []*inferModel
	cls []classInfo
	rng *rand.Rand

	cur      *inferModel
	in, out  *exec.Tensor
	replayed []pendingImage // replayed[r-1] is the expectation for row r
}

// newInferModel initialises a model's golden-seed weights and golden
// image, with o attached.
func newInferModel(g *graph.Graph, name string, o *obs.Obs) (*inferModel, error) {
	e, err := exec.NewExecutor(g, goldenSeed)
	if err != nil {
		return nil, err
	}
	e.SetObs(o)
	gold, err := e.RandomInput(1)
	if err != nil {
		return nil, err
	}
	return &inferModel{name: name, e: e, gold: gold}, nil
}

func newInfer(seed int64, o *obs.Obs, st *setupTimes) (*inferWL, error) {
	golden, err := loadInferGolden()
	if err != nil {
		return nil, err
	}
	w := &inferWL{rng: rand.New(rand.NewSource(seed))}
	for _, name := range inferModels {
		t := time.Now()
		g, _, err := buildModel(name)
		if err != nil {
			return nil, err
		}
		st.BuildMs += msSince(t)
		t = time.Now()
		m, err := newInferModel(g, name, o)
		if err != nil {
			return nil, err
		}
		st.InitMs += msSince(t)
		m.goldOut = golden[name]
		w.ms = append(w.ms, m)
		for _, b := range inferBatches {
			conv, fwd, bytes := forwardWork(g, b)
			w.cls = append(w.cls, classInfo{Name: fmt.Sprintf("%s_b%d", name, b), Items: float64(b),
				Replicas: 1, ConvFLOP: conv, FwdFLOP: fwd, ConvBytes: bytes})
		}
	}
	return w, nil
}

func (w *inferWL) classes() []classInfo { return w.cls }

func (w *inferWL) warmup() error {
	for _, m := range w.ms {
		out, err := m.e.Run(m.gold)
		if err != nil {
			return fmt.Errorf("infer %s: %w", m.name, err)
		}
		if len(m.goldOut) == 0 {
			return fmt.Errorf("infer %s: no golden logits", m.name)
		}
		if e := relL2(out.Data, m.goldOut); !(e <= relTol) {
			return fmt.Errorf("infer %s: golden image logits off by %.3g relative L2", m.name, e)
		}
	}
	return nil
}

func (w *inferWL) fillNormal(v []float32) {
	for i := range v {
		v[i] = float32(w.rng.NormFloat64())
	}
}

func (w *inferWL) prepare(c int) {
	m := w.ms[c/len(inferBatches)]
	batch := inferBatches[c%len(inferBatches)]
	w.cur, w.replayed = m, w.replayed[:0]
	w.in = exec.NewTensor(batch, m.gold.Shape)
	n := len(m.gold.Data)
	if batch == 1 {
		w.fillNormal(w.in.Data)
		return
	}
	copy(w.in.Data[:n], m.gold.Data)
	for r := 1; r < batch; r++ {
		row := w.in.Data[r*n : (r+1)*n]
		if len(m.pending) > 0 {
			copy(row, m.pending[0].img)
			w.replayed = append(w.replayed, m.pending[0])
			m.pending = m.pending[1:]
		} else {
			w.fillNormal(row)
		}
	}
}

func (w *inferWL) call() error {
	out, err := w.cur.e.Run(w.in)
	w.out = out
	return err
}

func (w *inferWL) check() (string, error) {
	m, out := w.cur, w.out
	if !allFinite(out.Data) {
		return "", fmt.Errorf("infer %s: non-finite logits", m.name)
	}
	k := len(out.Data) / out.Batch
	if out.Batch == 1 {
		m.pending = append(m.pending, pendingImage{img: w.in.Data, out: append([]float32(nil), out.Data...)})
	} else {
		if e := relL2(out.Data[:k], m.goldOut); !(e <= relTol) {
			return "", fmt.Errorf("infer %s: batch-%d row 0 (golden image) off by %.3g relative L2", m.name, out.Batch, e)
		}
		for i, p := range w.replayed {
			r := i + 1
			if e := relL2(out.Data[r*k:(r+1)*k], p.out); !(e <= relTol) {
				return "", fmt.Errorf("infer %s: batch-%d row %d differs from its batch-1 output by %.3g relative L2", m.name, out.Batch, r, e)
			}
		}
	}
	return fingerprint(floatBytes(out.Data)), nil
}

// finish cross-checks the batch-1 outputs no batch-4 request replayed,
// in one untimed batch per model.
func (w *inferWL) finish() error {
	for _, m := range w.ms {
		if len(m.pending) == 0 {
			continue
		}
		n := len(m.gold.Data)
		in := exec.NewTensor(len(m.pending), m.gold.Shape)
		for r, p := range m.pending {
			copy(in.Data[r*n:(r+1)*n], p.img)
		}
		out, err := m.e.Run(in)
		if err != nil {
			return fmt.Errorf("infer %s: %w", m.name, err)
		}
		k := len(out.Data) / out.Batch
		for r, p := range m.pending {
			if e := relL2(out.Data[r*k:(r+1)*k], p.out); !(e <= relTol) {
				return fmt.Errorf("infer %s: batch-1 output not reproduced in a batch (%.3g relative L2)", m.name, e)
			}
		}
		m.pending = nil
	}
	return nil
}

// ---- train ----

// trainWL runs Trainer.Step: squeezenet1_1 data-parallel on two workers
// over the channel ring with SGD. The seed picks the weights and the
// task; every segment of a seed replays the same loss curve.
type trainWL struct {
	g    *graph.Graph
	tr   *train.Trainer
	src  train.DataSource
	cls  []classInfo
	gold []float64
	loss float64
}

// newTrainer builds a trainer and its data source for a seed.
func newTrainer(g *graph.Graph, seed int64, o *obs.Obs) (*train.Trainer, train.DataSource, error) {
	task, err := train.NewPrototypeTask(g, 10, 0.3, seed)
	if err != nil {
		return nil, nil, err
	}
	tr, err := train.NewTrainer(g, train.Config{Workers: ringWorkers, LR: 0.01, Optimizer: train.SGD,
		Transport: train.TransportChan, Seed: seed, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	return tr, task.Source(trainBatch), nil
}

func newTrain(seed int64, o *obs.Obs, st *setupTimes) (*trainWL, error) {
	gold, err := loadTrainGolden()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	g, m, err := buildModel(trainModel)
	if err != nil {
		return nil, err
	}
	st.BuildMs += msSince(t)
	t = time.Now()
	tr, src, err := newTrainer(g, seed, o)
	if err != nil {
		return nil, err
	}
	st.InitMs += msSince(t)
	conv, fwd, bytes := forwardWork(g, trainBatch)
	n := float64(ringWorkers)
	return &trainWL{g: g, tr: tr, src: src, gold: gold, cls: []classInfo{{
		Name: "step", Items: n * trainBatch, Replicas: n,
		ConvFLOP: n * conv, FwdFLOP: n * fwd, ConvBytes: n * bytes,
		BusBytes: 2 * (n - 1) / n * 4 * float64(m.Weights),
	}}}, nil
}

func (w *trainWL) classes() []classInfo { return w.cls }

// warmup trains a fresh golden-seed trainer for the golden curve's
// steps and checks the losses and the replicas' agreement.
func (w *trainWL) warmup() error {
	tr, src, err := newTrainer(w.g, goldenSeed, nil)
	if err != nil {
		return err
	}
	if len(w.gold) == 0 {
		return fmt.Errorf("train: no golden losses")
	}
	for i, want := range w.gold {
		loss, err := tr.Step(src)
		if err != nil {
			return fmt.Errorf("train: golden step %d: %w", i, err)
		}
		if !(math.Abs(loss-want) <= lossTol*math.Abs(want)) {
			return fmt.Errorf("train: golden step %d loss %.9g, want %.9g", i, loss, want)
		}
		if err := replicasAgree(tr); err != nil {
			return err
		}
	}
	return nil
}

func replicasAgree(tr *train.Trainer) error {
	sums := tr.Checksums()
	for i, s := range sums {
		if s != sums[0] {
			return fmt.Errorf("train: replica %d checksum %v, replica 0 %v after step %d", i, s, sums[0], tr.StepIndex())
		}
	}
	return nil
}

func (w *trainWL) prepare(int) {}

func (w *trainWL) call() error {
	loss, err := w.tr.Step(w.src)
	w.loss = loss
	return err
}

func (w *trainWL) check() (string, error) {
	if math.IsNaN(w.loss) || math.IsInf(w.loss, 0) {
		return "", fmt.Errorf("train: non-finite loss at step %d", w.tr.StepIndex())
	}
	if err := replicasAgree(w.tr); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", math.Float64bits(w.loss)), nil
}

func (w *trainWL) finish() error { return nil }

// ---- sync ----

// syncWL runs allreduce.Ring on two workers over payloads sized like
// the gradients of four zoo models. Each op fills the vectors with
// small integers drawn from the seed, so every sum is exact and is
// checked element by element against the serial sum.
type syncWL struct {
	sizes []int
	cls   []classInfo
	o     *obs.Obs
	rng   *rand.Rand
	v     [ringWorkers][]float32
	key   uint32
	n     int
}

func newSync(seed int64, o *obs.Obs, st *setupTimes) (*syncWL, error) {
	w := &syncWL{o: o, rng: rand.New(rand.NewSource(seed))}
	t := time.Now()
	maxN := 0
	for _, name := range syncPayloads {
		_, m, err := buildModel(name)
		if err != nil {
			return nil, err
		}
		n := int(m.Weights)
		w.sizes = append(w.sizes, n)
		maxN = max(maxN, n)
		nw := float64(ringWorkers)
		w.cls = append(w.cls, classInfo{Name: name, Items: float64(n),
			BusBytes: 2 * (nw - 1) / nw * 4 * float64(n)})
	}
	st.BuildMs += msSince(t)
	t = time.Now()
	for i := range w.v {
		w.v[i] = make([]float32, maxN)
	}
	st.InitMs += msSince(t)
	return w, nil
}

func (w *syncWL) classes() []classInfo { return w.cls }

// payloadValue is worker wk's element i for fill key k: an integer in
// [-2048, 2047], so that sums over the ring's workers are exact.
func payloadValue(wk int, i int, k uint32) float32 {
	x := uint32(i)*2654435761 ^ (k + uint32(wk)*0x9e3779b9)
	x ^= x >> 15
	x *= 0x2c1b3c6d
	x ^= x >> 12
	return float32(int32(x>>20) - 2048)
}

// warmup reduces every payload once under a fixed key, so that the
// heap has grown to the ring's buffers before the timed ops.
func (w *syncWL) warmup() error {
	for c := range w.sizes {
		w.fill(c, 0x5eed)
		if err := w.call(); err != nil {
			return err
		}
		if _, err := w.check(); err != nil {
			return err
		}
	}
	return nil
}

// fill writes each worker's payload for key, one goroutine per worker.
func (w *syncWL) fill(c int, key uint32) {
	w.n, w.key = w.sizes[c], key
	var wg sync.WaitGroup
	for wk := range w.v {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			v := w.v[wk][:w.n]
			for i := range v {
				v[i] = payloadValue(wk, i, key)
			}
		}(wk)
	}
	wg.Wait()
}

func (w *syncWL) prepare(c int) { w.fill(c, w.rng.Uint32()) }

func (w *syncWL) call() error {
	var vs [ringWorkers][]float32
	for i := range vs {
		vs[i] = w.v[i][:w.n]
	}
	return allreduce.RingObs(vs[:], w.o)
}

// check compares every element of every worker's vector with the
// serial sum, the two halves of the vector on two goroutines.
func (w *syncWL) check() (string, error) {
	var errs [2]error
	var wg sync.WaitGroup
	for h := range errs {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := h * w.n / 2; i < (h+1)*w.n/2; i++ {
				var want float32
				for wk := range w.v {
					want += payloadValue(wk, i, w.key)
				}
				for wk := range w.v {
					if got := w.v[wk][i]; got != want {
						errs[h] = fmt.Errorf("sync: worker %d element %d of %d is %v, serial sum %v", wk, i, w.n, got, want)
						return
					}
				}
			}
		}(h)
	}
	wg.Wait()
	if errs[0] != nil {
		return "", errs[0]
	}
	return "", errs[1]
}

func (w *syncWL) finish() error { return nil }

// ---- reproduce ----

// reproWL runs experiments.RunDAG over every deterministic simulated
// experiment with two DAG workers, in memory, in Quick mode: the same
// sweep, fit and LOMO code on smaller sweeps. A full-scale run takes
// about 0.7 s and, with two DAG workers sharing two processors, varies
// by some 12% from run to run, too few and too noisy for a run of a few
// seconds to hold a bound of 10%. The package tests check the
// full-scale golden. Every run's text must be byte-identical to the
// golden for the golden seed and identical across runs for every seed.
type reproWL struct {
	ids    []string
	cfg    experiments.Config
	golden string // expected text for cfg, "" when none is committed
	ref    string // fingerprint of the segment's first run
	cls    []classInfo
	res    []*experiments.Result
}

func reproduceIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if !reproduceExcluded[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

func newReproduce(seed int64, o *obs.Obs) (*reproWL, error) {
	w := &reproWL{ids: reproduceIDs(), cfg: experiments.Config{Seed: seed, Quick: true, Obs: o},
		cls: []classInfo{{Name: "run", Items: 1}}}
	if seed == goldenSeed {
		g, err := loadReproduceGolden(true)
		if err != nil {
			return nil, err
		}
		w.golden = g
	}
	return w, nil
}

func (w *reproWL) classes() []classInfo { return w.cls }

func runReproduce(ids []string, cfg experiments.Config) ([]*experiments.Result, error) {
	res, _, err := experiments.RunDAG(ids, cfg, experiments.DagConfig{Workers: ringWorkers})
	return res, err
}

// warmup runs the golden seed, whose text is committed.
func (w *reproWL) warmup() error {
	want, err := loadReproduceGolden(true)
	if err != nil {
		return err
	}
	res, err := runReproduce(w.ids, experiments.Config{Seed: goldenSeed, Quick: true})
	if err != nil {
		return err
	}
	if got := renderResults(res); got != want {
		return fmt.Errorf("reproduce: golden-seed text differs from testdata (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

func (w *reproWL) prepare(int) {}

func (w *reproWL) call() error {
	res, err := runReproduce(w.ids, w.cfg)
	w.res = res
	return err
}

func (w *reproWL) check() (string, error) {
	text := renderResults(w.res)
	if w.golden != "" && text != w.golden {
		return "", fmt.Errorf("reproduce: golden-seed text differs from testdata (%d vs %d bytes)", len(text), len(w.golden))
	}
	fp := fingerprint([]byte(text))
	if w.ref == "" {
		w.ref = fp
	} else if fp != w.ref {
		return "", fmt.Errorf("reproduce: run output %s differs from the segment's first run %s", fp, w.ref)
	}
	return fp, nil
}

func (w *reproWL) finish() error { return nil }
