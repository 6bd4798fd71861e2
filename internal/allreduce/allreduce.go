// Package allreduce is a working implementation of the ring all-reduce
// algorithm the paper's gradient-update model is built around (§3.3:
// "a ring-all-reduce pattern synchronizes all local updates"). N workers
// — one goroutine each, connected in a ring — reduce their equally sized
// gradient vectors to the elementwise sum in 2·(N−1) steps: a
// reduce-scatter phase followed by an all-gather phase, each moving one
// 1/N-sized chunk per step. This is the communication pattern NCCL and
// Horovod use; netsim models its *cost*, this package executes it for
// real and pins down its semantics.
//
// There are two transports, each with one contract. The channel ring
// (Ring, RingObs) links the workers with in-process channels, which
// cannot drop, reset or corrupt a message, so it is plain: it takes no
// Options, and has no deadlines, retries, checksums or injected faults.
// The TCP ring (RingTCPOpts, tcp.go) runs over real loopback sockets,
// where those faults are physically possible, and is the hardened one:
// the wiring phase, each dial, each chunk write and each chunk read
// fails at one deadline (Options.OpTimeout, 2 s when unset) and is not
// retried, chunks carry a CRC, and internal/faults can inject
// deterministic faults. Its failures come
// back as *RingError values attributing blame per worker, which the
// elastic trainer (internal/train) uses to drop dead members and re-form
// the ring.
//
// Both rings reduce a received chunk into the worker's own with
// simd.Add, which has two leaves picked from the CPU: VADDPS over blocks
// of 32 floats where it has AVX2, and the Go loop for the tail, on other
// CPUs and in every -race build. The race rule keeps every read and
// write of the channel ring's view hand-off visible to the race
// detector, which sees no assembly's memory accesses. Each sum rounds to
// float32 on its own and keeps the receiving worker's NaN where both
// operands are NaN, as the scalar loop dst[k] += src[k] does, so the
// reduced vectors are bit-identical on either leaf.
package allreduce

import (
	"fmt"
	"sync"

	"convmeter/internal/obs"
	"convmeter/internal/simd"
)

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

// chanMsg is one message on a ring channel: a view of the sender's
// chunk, and the sender's span context so the receiver's wait span can
// link across workers.
type chanMsg struct {
	data []float32
	ctx  obs.SpanContext
}

// Ring reduces the workers' vectors in place to their elementwise sum
// using ring all-reduce. vectors[i] is worker i's local gradient; all
// vectors must have equal length. The run is fully concurrent: one
// goroutine per worker, synchronised only by the ring channels.
func Ring(vectors [][]float32) error {
	return RingObs(vectors, nil)
}

// RingObs is Ring with telemetry: each worker's ar.send, ar.wait and
// ar.recv spans land on the bundle's tracer, attributed to workerIDs[i]
// for ring position i (its own index when workerIDs is shorter). A nil
// Obs is exactly Ring. Beyond invalid vectors, the run cannot fail.
func RingObs(vectors [][]float32, o *obs.Obs, workerIDs ...int) error {
	n, _, err := validate(vectors)
	if err != nil {
		return err
	}
	if n == 1 {
		return nil // nothing to reduce
	}
	// links[i] carries messages from worker i-1 to worker i (mod n).
	links := make([]chan chanMsg, n)
	for i := range links {
		links[i] = make(chan chanMsg, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			chanWorker(vectors[me], me, links, o.WithWorker(workerID(workerIDs, me)))
		}(w)
	}
	wg.Wait()
	return nil
}

// chanRing is one worker's state for a channel-transport ring run. One
// step allocates nothing (TestRingStepZeroAllocs), so the ar.* spans a
// traced run records measure communication, not the garbage collector.
type chanRing struct {
	v          []float32
	n          int
	send, recv chan chanMsg
	obs        *obs.Obs // worker-attributed handle, nil when telemetry is off
}

// chanWorker runs one worker's 2·(n−1) ring steps over the channels.
// o is the worker-attributed handle, built once per run outside the
// step loop; a nil Obs flows through as nil.
func chanWorker(v []float32, me int, links []chan chanMsg, o *obs.Obs) {
	n := len(links)
	r := &chanRing{v: v, n: n, send: links[(me+1)%n], recv: links[me], obs: o}
	// Phase 1 — reduce-scatter: after step s, worker me holds the partial
	// sum of chunk (me−s) accumulated over s+1 workers. At the end, worker
	// me owns the fully reduced chunk (me+1) mod n.
	for s := 0; s < n-1; s++ {
		r.step(((me-s)%n+n)%n, ((me-s-1)%n+n)%n, true)
	}
	// Phase 2 — all-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		r.step(((me-s+1)%n+n)%n, ((me-s)%n+n)%n, false)
	}
}

// step executes one ring step: send one chunk to the successor, receive
// one from the predecessor, and reduce or store it.
func (r *chanRing) step(sendChunk, recvChunk int, reduce bool) {
	a, b := chunkBounds(len(r.v), r.n, sendChunk)
	// The message is a view of this worker's own chunk, not a copy. At
	// step t a worker sends chunk me−t and writes the chunk it receives,
	// me−t−1 (mod n), so it next writes the chunk it sent at step t+n−1.
	// Every link has capacity 1, so that write waits until the successor
	// has finished reading the view:
	//   - n = 2: the write follows this worker's receive of step t+1, and
	//     the predecessor, who is also the reader, sends that message
	//     only after processing step t;
	//   - n ≥ 3: the write follows this worker's send of step t+2, which
	//     completes only once the successor has dequeued step t+1, after
	//     processing step t.
	// Ring returns only after every worker has finished.
	ssp := r.obs.Start("ar.send")
	r.send <- chanMsg{data: r.v[a:b:b], ctx: ssp.Context()}
	ssp.End()
	wsp := r.obs.Start("ar.wait")
	in := <-r.recv
	wsp.LinkTo(in.ctx)
	wsp.End()
	rsp := r.obs.Start("ar.recv")
	a, b = chunkBounds(len(r.v), r.n, recvChunk)
	if reduce {
		simd.Add(r.v[a:b], in.data)
	} else {
		copy(r.v[a:b], in.data)
	}
	rsp.End()
}
