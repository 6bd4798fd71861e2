package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Everything the kernels in this package do per invocation must be
// allocation-free (TestKernelsZeroAllocs and TestBackwardKernelsZeroAllocs
// pin it), or the GC noise lands in the very wall-clock samples hwreal
// feeds into the runtime model. The old parallelFor helper allocated a
// channel, a closure and a goroutine set on every call; this file
// replaces it with a persistent worker pool fed pooled task structs.

// kernelScratch holds one worker's reusable temporary buffers. Each
// pool worker owns one; the serial path borrows one from scratchPool.
type kernelScratch struct {
	buf []float32
	// grads holds the backward taps route's gathered gradients, on the
	// heap: the AVX2 leaf is called through a function value, which
	// would move a stack array there on every call.
	grads [gradChunk]gradAt
}

// floats returns a scratch slice of length n backed by the worker's
// buffer, growing it only when a larger kernel arrives.
func (sc *kernelScratch) floats(n int) []float32 {
	if cap(sc.buf) < n {
		sc.buf = make([]float32, n)
	}
	return sc.buf[:n]
}

// indexRunner is one parallel kernel invocation: run computes item i
// of a flattened index space using the worker-local scratch sc. Items
// must be independent — each writes disjoint output elements — so any
// assignment of items to workers yields identical numerics.
type indexRunner interface {
	run(i int, sc *kernelScratch)
}

// poolWork is one parallelRun submission: workers atomically claim runs
// of chunk consecutive indices from next until n is exhausted.
type poolWork struct {
	r        indexRunner
	n, chunk int64
	next     atomic.Int64
	wg       sync.WaitGroup
}

// claimsPerWorker sets the claim size: a submission of n items is
// claimed in runs of n/(claimsPerWorker·poolSize) items, at least one.
// One atomic add per item cost more than the item itself where items
// are single outputs (a depthwise conv on a 1×1 map); eight claims per
// worker still leave a worker that finishes early the rest to share.
const claimsPerWorker = 8

// reset readies pw to run r over [0, n) on the pool's workers.
func (pw *poolWork) reset(r indexRunner, n int) {
	pw.r = r
	pw.n = int64(n)
	pw.chunk = int64(max(1, n/(claimsPerWorker*poolSize)))
	pw.next.Store(0)
}

var (
	poolStart sync.Once
	poolCh    chan *poolWork
	poolSize  int

	workPool    = sync.Pool{New: func() any { return new(poolWork) }}
	scratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}
)

// startPool launches the persistent kernel workers, sized to
// GOMAXPROCS at first use. The workers live for the process lifetime
// by design; each signals completion of a submission via its
// WaitGroup Done.
func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	poolCh = make(chan *poolWork, poolSize)
	for w := 0; w < poolSize; w++ {
		go func() {
			sc := &kernelScratch{}
			for pw := range poolCh {
				drainWork(pw, sc)
				pw.wg.Done()
			}
		}()
	}
}

// drainWork claims runs of items and runs them until the submission is
// exhausted.
func drainWork(pw *poolWork, sc *kernelScratch) {
	for {
		hi := pw.next.Add(pw.chunk)
		lo := hi - pw.chunk
		if lo >= pw.n {
			return
		}
		for i := lo; i < min(hi, pw.n); i++ {
			pw.r.run(int(i), sc)
		}
	}
}

// parallelRun runs r.run(i, sc) for i in [0, n) across the persistent
// pool, or serially when the pool would not help. It allocates nothing
// in steady state: the submission struct and the serial-path scratch
// both come from sync.Pools.
func parallelRun(r indexRunner, n int) {
	if n <= 0 {
		return
	}
	poolStart.Do(startPool)
	if poolSize <= 1 || n == 1 {
		sc := scratchPool.Get().(*kernelScratch)
		for i := 0; i < n; i++ {
			r.run(i, sc)
		}
		scratchPool.Put(sc)
		return
	}
	pw := workPool.Get().(*poolWork)
	pw.reset(r, n)
	workers := poolSize
	if workers > n {
		workers = n
	}
	pw.wg.Add(workers)
	for w := 0; w < workers; w++ {
		poolCh <- pw
	}
	pw.wg.Wait()
	pw.r = nil
	workPool.Put(pw)
}
