package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"convmeter/internal/obs"
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
	return runParallelObs(n, nil, "", task)
}

// runParallelObs is RunParallel with telemetry: per-task durations feed a
// latency histogram and a busy-seconds counter (busy seconds over wall
// clock is the pool's worker utilisation), and the worker count is
// exported as a gauge. A nil Obs adds no work beyond one nil check per
// task.
func runParallelObs(n int, o *obs.Obs, scenario string, task func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		tasksC *obs.Counter
		busyC  *obs.Counter
		taskH  *obs.Histogram
	)
	if o != nil {
		tasksC = o.Counter(obs.Label("convmeter_bench_tasks_total", "scenario", scenario),
			"bench collector tasks executed, by scenario kind")
		busyC = o.Counter(obs.Label("convmeter_bench_busy_seconds_total", "scenario", scenario),
			"summed task wall-clock; divide by elapsed time and workers for pool utilisation")
		taskH = o.Histogram(obs.Label("convmeter_bench_task_seconds", "scenario", scenario),
			"bench collector per-task latency", obs.DefaultDurationBuckets())
		o.Gauge("convmeter_bench_workers", "bench collector worker-pool size").Set(float64(workers))
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
				var t0 time.Time
				if o != nil {
					t0 = time.Now()
				}
				err := task(i)
				if o != nil {
					d := time.Since(t0).Seconds()
					taskH.Observe(d)
					busyC.Add(d)
					tasksC.Inc()
				}
				if err != nil {
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
