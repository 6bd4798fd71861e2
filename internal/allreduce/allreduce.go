// Package allreduce is a working implementation of the ring all-reduce
// algorithm the paper's gradient-update model is built around (§3.3:
// "a ring-all-reduce pattern synchronizes all local updates"). N workers
// — one goroutine each, connected in a ring by channels — reduce their
// equally sized gradient vectors to the elementwise sum in 2·(N−1) steps:
// a reduce-scatter phase followed by an all-gather phase, each moving one
// 1/N-sized chunk per step. This is the communication pattern NCCL and
// Horovod use; netsim models its *cost*, this package executes it for
// real and pins down its semantics.
//
// Both transports (in-process channels, and real TCP sockets in tcp.go)
// additionally support a resilient mode (RingOpts/RingTCPOpts): per-op
// deadlines, context cancellation, bounded retries with exponential
// backoff and jitter, CRC validation of chunks, and deterministic fault
// injection via internal/faults. Failures come back as *RingError values
// attributing blame per worker, which the elastic trainer
// (internal/train) uses to drop dead members and re-form the ring.
package allreduce

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// ringTelemetry bundles the metric handles one all-reduce run shares
// across its worker goroutines (counters and histograms are internally
// atomic, so concurrent updates are safe). A nil *ringTelemetry — the
// disabled path — makes every method a no-op.
type ringTelemetry struct {
	steps      *obs.Counter
	stepH      *obs.Histogram
	retries    *obs.Counter
	crcFail    *obs.Counter
	sent, recv *obs.Counter // tcp transport only
}

// newRingTelemetry resolves handles for the given transport ("chan" or
// "tcp"); byte counters exist only for tcp, where real sockets move the
// gradient chunks.
func newRingTelemetry(o *obs.Obs, transport string) *ringTelemetry {
	if o == nil {
		return nil
	}
	rt := &ringTelemetry{
		steps: o.Counter(obs.Label("convmeter_allreduce_steps_total", "transport", transport),
			"ring all-reduce steps executed (per worker, reduce-scatter plus all-gather), by transport"),
		stepH: o.Histogram(obs.Label("convmeter_allreduce_step_seconds", "transport", transport),
			"ring step latency: one chunk sent, one received, reduced or stored", obs.DefaultDurationBuckets()),
		retries: o.Counter(obs.Label("convmeter_allreduce_retries_total", "transport", transport),
			"per-op retries after chunk timeouts or transient wiring failures, by transport"),
		crcFail: o.Counter(obs.Label("convmeter_allreduce_crc_failures_total", "transport", transport),
			"chunks rejected by CRC validation, by transport"),
	}
	if transport == "tcp" {
		rt.sent = o.Counter(obs.Label("convmeter_allreduce_tcp_bytes_total", "dir", "sent"),
			"framed gradient bytes written to ring sockets")
		rt.recv = o.Counter(obs.Label("convmeter_allreduce_tcp_bytes_total", "dir", "recv"),
			"framed gradient bytes read from ring sockets")
	}
	return rt
}

// step records one completed ring step.
func (rt *ringTelemetry) step(elapsed time.Duration) {
	if rt == nil {
		return
	}
	rt.steps.Inc()
	rt.stepH.Observe(elapsed.Seconds())
}

// retry records one per-op retry.
func (rt *ringTelemetry) retry() {
	if rt == nil {
		return
	}
	rt.retries.Inc()
}

// crcFailure records one CRC-rejected chunk.
func (rt *ringTelemetry) crcFailure() {
	if rt == nil {
		return
	}
	rt.crcFail.Inc()
}

// chunkBounds splits length n into p contiguous chunks; chunk i spans
// [start, end). Chunks differ in size by at most one element, and may be
// empty when n < p.
func chunkBounds(n, p, i int) (start, end int) {
	base := n / p
	rem := n % p
	start = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return start, start + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// validate checks the worker vectors and reports (n, length).
func validate(vectors [][]float32) (int, int, error) {
	n := len(vectors)
	if n == 0 {
		return 0, 0, fmt.Errorf("allreduce: no workers")
	}
	length := len(vectors[0])
	for i, v := range vectors {
		if len(v) != length {
			return 0, 0, fmt.Errorf("allreduce: worker %d has %d elements, worker 0 has %d", i, len(v), length)
		}
	}
	return n, length, nil
}

// chanMsg is one framed message on a ring channel: the chunk data plus
// the logical step index it belongs to, and a CRC when fault injection
// is active (an in-memory channel cannot corrupt data by itself). ctx
// carries the sender's span context so the receiver's wait span can
// link across workers.
type chanMsg struct {
	seq    uint64
	data   []float32
	crc    uint32
	hasCRC bool
	ctx    obs.SpanContext
}

// crcFloats checksums the little-endian bit pattern of a float32 slice
// (IEEE CRC-32), encoding it through scratch, whose length must be a
// non-zero multiple of 4. It feeds crc32.Update directly instead of a
// hash.Hash32, and a caller-owned scratch instead of a local array that
// would escape through crc32's dispatch, so the hot ring step validates
// chunks without allocating.
func crcFloats(data []float32, scratch []byte) uint32 {
	var crc uint32
	per := len(scratch) / 4
	for len(data) > 0 {
		n := min(len(data), per)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(scratch[4*i:], math.Float32bits(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, scratch[:4*n])
		data = data[n:]
	}
	return crc
}

// Ring reduces the workers' vectors in place to their elementwise sum
// using ring all-reduce. vectors[i] is worker i's local gradient; all
// vectors must have equal length. The run is fully concurrent: one
// goroutine per worker, synchronised only by the ring channels.
func Ring(vectors [][]float32) error {
	return RingOpts(vectors, Options{})
}

// RingObs is Ring with telemetry: per-step counts and latencies land on
// the bundle under transport="chan". A nil Obs is exactly Ring.
func RingObs(vectors [][]float32, o *obs.Obs) error {
	return RingOpts(vectors, Options{Obs: o})
}

// RingOpts is the resilient channel-transport ring: Options add context
// cancellation, per-op deadlines with bounded retries, CRC validation
// and fault injection. The zero Options is exactly Ring. On failure the
// returned error is a *RingError attributing blame per worker.
func RingOpts(vectors [][]float32, opts Options) error {
	n, _, err := validate(vectors)
	if err != nil {
		return err
	}
	if n == 1 {
		return nil // nothing to reduce
	}
	rt := newRingTelemetry(opts.Obs, "chan")
	// links[i] carries messages from worker i-1 to worker i (mod n).
	links := make([]chan chanMsg, n)
	for i := range links {
		links[i] = make(chan chanMsg, 1)
	}
	errs := make([]*WorkerError, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			errs[me] = chanWorker(vectors, me, links, opts, rt)
		}(w)
	}
	wg.Wait()
	return joinWorkerErrs(errs)
}

// chanRing is one worker's state for a channel-transport ring run: the
// ring wiring, three rotating send buffers for runs with a fault
// injector, and a reusable op timer. One step allocates nothing
// (TestRingStepZeroAllocs) — with a fault injector, once the send
// buffers are warm — so the step latencies the telemetry histograms
// record measure communication, not the garbage collector.
type chanRing struct {
	v          []float32
	me, n      int
	length     int
	send, recv chan chanMsg
	opts       Options
	rt         *ringTelemetry
	obs        *obs.Obs // worker-attributed handle, nil when telemetry is off
	resilient  bool
	timer      *time.Timer // armed per resilient op, nil on the fast path
	bufs       [3][]float32
	bufIdx     int
	crcBuf     []byte // crcFloats scratch, nil without a fault injector
}

// newChanRing builds one worker's ring state: v is its vector, send the
// link to its successor and recv the link from its predecessor.
func newChanRing(v []float32, me, n int, send, recv chan chanMsg, opts Options, rt *ringTelemetry) *chanRing {
	r := &chanRing{
		v: v, me: me, n: n, length: len(v), send: send, recv: recv,
		opts: opts, rt: rt, resilient: opts.resilient(),
		// The worker-attributed handle is built once per run, outside the
		// hot step loop; a nil Obs flows through as nil.
		obs: opts.Obs.WithWorker(opts.workerID(me)),
	}
	if r.resilient {
		// The reusable timer is born stopped and drained; each op arms
		// it with the op deadline and disarms it on completion.
		r.timer = time.NewTimer(time.Hour)
		if !r.timer.Stop() {
			<-r.timer.C
		}
	}
	if opts.Faults != nil {
		r.crcBuf = make([]byte, 4096)
	}
	return r
}

// chanWorker runs one worker's 2·(n−1) ring steps over the channels.
func chanWorker(vectors [][]float32, me int, links []chan chanMsg, opts Options, rt *ringTelemetry) *WorkerError {
	n := len(links)
	r := newChanRing(vectors[me], me, n, links[(me+1)%n], links[me], opts, rt)
	if r.timer != nil {
		defer r.timer.Stop()
	}
	// Phase 1 — reduce-scatter: after step s, worker me holds the partial
	// sum of chunk (me−s) accumulated over s+1 workers. At the end, worker
	// me owns the fully reduced chunk (me+1) mod n.
	for s := 0; s < n-1; s++ {
		if we := r.step(uint64(s), ((me-s)%n+n)%n, ((me-s-1)%n+n)%n, true); we != nil {
			return we
		}
	}
	// Phase 2 — all-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		if we := r.step(uint64(n-1+s), ((me-s+1)%n+n)%n, ((me-s)%n+n)%n, false); we != nil {
			return we
		}
	}
	return nil
}

// sendBuf returns the next rotating send buffer resliced to size. Only
// runs with a fault injector copy chunks into send buffers, so that an
// injected corruption hits the copy and never the worker's own vector.
// Three buffers suffice while no send is skipped: the ring links have
// capacity 1, so this worker's send of step s+2 completing proves the
// successor dequeued step s+1 — which it only does after fully
// processing step s — so the buffer reused at step s+3 has no readers
// left. A fault skip breaks that signal chain; skips burn the rotation
// and later steps grow fresh buffers.
func (r *chanRing) sendBuf(size int) []float32 {
	if cap(r.bufs[r.bufIdx]) < size {
		r.bufs[r.bufIdx] = make([]float32, size)
	}
	b := r.bufs[r.bufIdx][:size]
	r.bufs[r.bufIdx] = b
	r.bufIdx = (r.bufIdx + 1) % 3
	return b
}

// burnBufs retires every rotating buffer. Called when a fault skips a
// send: without that send's completion signal the reuse proof in
// sendBuf no longer holds, so the old buffers must never be rewritten.
func (r *chanRing) burnBufs() {
	for i := range r.bufs {
		r.bufs[i] = nil
	}
}

// step executes one ring step: send one chunk to the successor, receive
// one from the predecessor, and reduce or store it.
func (r *chanRing) step(opIdx uint64, sendChunk, recvChunk int, reduce bool) *WorkerError {
	var t0 time.Time
	if r.rt != nil {
		t0 = time.Now()
	}
	a, b := chunkBounds(r.length, r.n, sendChunk)
	// Without a fault injector the message is a view of this worker's own
	// chunk, not a copy. At step t a worker sends chunk me−t and writes
	// the chunk it receives, me−t−1 (mod n), so it next writes the chunk
	// it sent at step t+n−1. Every link has capacity 1, so that write
	// waits until the successor has finished reading the view:
	//   - n = 2: the write follows this worker's receive of step t+1, and
	//     the predecessor, who is also the reader, sends that message
	//     only after processing step t;
	//   - n ≥ 3: the write follows this worker's send of step t+2, which
	//     completes only once the successor has dequeued step t+1, after
	//     processing step t.
	// A failed send or receive ends the worker before its next write, and
	// Ring returns only after every worker has finished.
	out := r.v[a:b:b]
	if r.opts.Faults != nil {
		out = r.sendBuf(b - a)
		copy(out, r.v[a:b])
	}
	ssp := r.obs.Start("ar.send")
	msg := chanMsg{seq: opIdx, data: out, ctx: ssp.Context()}
	skip := false
	if r.opts.Faults != nil {
		msg.crc, msg.hasCRC = crcFloats(out, r.crcBuf), true
		f := r.opts.Faults.Decide(faults.Op{
			Transport: "chan", Worker: r.opts.workerID(r.me), Dir: "send", Seq: r.opts.SeqBase + opIdx,
		})
		switch f.Class {
		case faults.ClassDelay:
			time.Sleep(f.Delay)
		case faults.ClassDrop, faults.ClassReset:
			skip = true // the message vanishes; the successor times out or sees a gap
			r.burnBufs()
		case faults.ClassCorrupt:
			if len(out) > 0 {
				i := int(f.Arg % uint64(len(out)))
				out[i] = math.Float32frombits(math.Float32bits(out[i]) ^ 1<<(f.Arg%23))
			}
		case faults.ClassTruncate:
			msg.data = out[:len(out)/2] // CRC still covers the full chunk
		}
	}
	self, succ := r.opts.workerID(r.me), r.opts.workerID((r.me+1)%r.n)
	pred := r.opts.workerID((r.me - 1 + r.n) % r.n)
	if !skip {
		if !r.resilient {
			r.send <- msg
		} else if we := r.sendResilient(msg, self, succ); we != nil {
			ssp.End()
			return we
		}
	}
	ssp.End()
	wsp := r.obs.Start("ar.wait")
	var in chanMsg
	if !r.resilient {
		in = <-r.recv
	} else {
		var we *WorkerError
		if in, we = r.recvResilient(self, pred); we != nil {
			wsp.End()
			return we
		}
	}
	wsp.LinkTo(in.ctx)
	wsp.End()
	if in.seq != opIdx {
		return &WorkerError{Worker: pred, Primary: true,
			Err: fmt.Errorf("lost ring message: got step %d, want %d", in.seq, opIdx)}
	}
	rsp := r.obs.Start("ar.recv")
	if in.hasCRC && crcFloats(in.data, r.crcBuf) != in.crc {
		r.rt.crcFailure()
		rsp.End()
		return &WorkerError{Worker: pred, Primary: true, Err: fmt.Errorf("chunk CRC mismatch at step %d", opIdx)}
	}
	a, b = chunkBounds(r.length, r.n, recvChunk)
	if len(in.data) != b-a {
		rsp.End()
		return &WorkerError{Worker: pred, Primary: true,
			Err: fmt.Errorf("chunk size %d, want %d at step %d", len(in.data), b-a, opIdx)}
	}
	if reduce {
		for k := range in.data {
			r.v[a+k] += in.data[k]
		}
	} else {
		copy(r.v[a:b], in.data)
	}
	rsp.End()
	if r.rt != nil {
		r.rt.step(time.Since(t0))
	}
	return nil
}

// armTimer resets the reusable timer to the op deadline.
func (r *chanRing) armTimer() {
	r.timer.Reset(r.opts.opTimeout())
}

// disarmTimer stops the timer and drains a concurrent expiry so the
// next armTimer starts clean.
func (r *chanRing) disarmTimer() {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
}

// sendResilient delivers one message under deadline + retry; a
// persistently full link means the successor stopped draining, so blame
// lands there.
func (r *chanRing) sendResilient(msg chanMsg, self, succ int) *WorkerError {
	attempts := r.opts.Retry.attempts()
	for attempt := 1; ; attempt++ {
		r.armTimer()
		select {
		case r.send <- msg:
			r.disarmTimer()
			return nil
		case <-r.opts.ctx().Done():
			r.disarmTimer()
			return &WorkerError{Worker: self, Err: r.opts.ctx().Err()}
		case <-r.timer.C:
			if attempt >= attempts {
				return &WorkerError{Worker: succ,
					Err: fmt.Errorf("send timed out after %d attempts", attempts)}
			}
			r.rt.retry()
		}
	}
}

// recvResilient awaits one message under deadline + retry; a silent
// link means the predecessor stalled or dropped the message, so blame
// lands there.
func (r *chanRing) recvResilient(self, pred int) (chanMsg, *WorkerError) {
	attempts := r.opts.Retry.attempts()
	for attempt := 1; ; attempt++ {
		r.armTimer()
		select {
		case msg := <-r.recv:
			r.disarmTimer()
			return msg, nil
		case <-r.opts.ctx().Done():
			r.disarmTimer()
			return chanMsg{}, &WorkerError{Worker: self, Err: r.opts.ctx().Err()}
		case <-r.timer.C:
			if attempt >= attempts {
				return chanMsg{}, &WorkerError{Worker: pred,
					Err: fmt.Errorf("receive timed out after %d attempts", attempts)}
			}
			r.rt.retry()
		}
	}
}
