package exec

import (
	"sync"
	"sync/atomic"
	"testing"
)

// countRunner counts the runs of each index.
type countRunner struct{ hits []atomic.Int32 }

func (c *countRunner) run(i int, _ *kernelScratch) { c.hits[i].Add(1) }

// TestDrainWorkRunsEveryIndexOnce drives drainWork from 1–4 goroutines,
// as pool workers do, and requires every index to run exactly once: for
// every n up to one past eight claims per worker, where the claim size
// steps from 1 to 2, and for n = 10,000.
func TestDrainWorkRunsEveryIndexOnce(t *testing.T) {
	poolStart.Do(startPool)
	ns := []int{10000}
	for n := 1; n <= claimsPerWorker*poolSize+1; n++ {
		ns = append(ns, n)
	}
	for goroutines := 1; goroutines <= 4; goroutines++ {
		for _, n := range ns {
			c := &countRunner{hits: make([]atomic.Int32, n)}
			pw := new(poolWork)
			pw.reset(c, n)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					drainWork(pw, &kernelScratch{})
				}()
			}
			wg.Wait()
			for i := range c.hits {
				if h := c.hits[i].Load(); h != 1 {
					t.Fatalf("%d goroutines, n %d: index %d ran %d times", goroutines, n, i, h)
				}
			}
		}
	}
}
