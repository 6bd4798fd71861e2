package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
)

// deriveSeed mixes the scenario seed with a configuration identity so
// that every parallel worker owns an independent, reproducible noise
// stream: the dataset is bit-identical regardless of worker count or
// scheduling order.
func deriveSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	// hash.Hash.Write is documented never to return an error.
	_, _ = fmt.Fprintf(h, "%d", base)
	for _, p := range parts {
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(p))
	}
	return int64(h.Sum64() >> 1) // keep it non-negative
}

// RunParallel executes n independent tasks over a bounded worker pool of
// GOMAXPROCS goroutines and returns the first error. Task outputs must be
// written to pre-allocated per-index slots by the closure, keeping
// assembly order deterministic.
func RunParallel(n int, task func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := task(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
