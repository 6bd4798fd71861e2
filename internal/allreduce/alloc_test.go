package allreduce

import (
	"runtime"
	"testing"

	"convmeter/internal/faults"
	"convmeter/internal/testrace"
)

// newStepRing wires worker 0 of a two-worker ring for driving its step
// directly: the test plays the predecessor by pre-filling the receive
// link and the successor by draining the send link (both links have
// capacity 1, exactly as Ring wires them).
func newStepRing(t *testing.T, length int, opts Options) *chanRing {
	t.Helper()
	v := make([]float32, length)
	for i := range v {
		v[i] = float32(i)
	}
	r := newChanRing(v, 0, 2, make(chan chanMsg, 1), make(chan chanMsg, 1), opts, nil)
	if r.timer != nil {
		t.Cleanup(func() { r.timer.Stop() })
	}
	return r
}

// oneStep runs one ring step — send chunk 0, then receive chunk 1 and
// store it — and returns the message the worker sent.
func oneStep(t *testing.T, r *chanRing, inbound []float32) chanMsg {
	r.recv <- chanMsg{seq: 0, data: inbound}
	if we := r.step(0, 0, 1, false); we != nil {
		t.Fatalf("ring step: %v", we)
	}
	return <-r.send
}

// TestRingStepZeroAllocs pins the chanRing.step allocation contract: a
// ring step allocates nothing — no chunk copies, no timers, no CRC
// hasher. Without a fault injector the step sends a view of the
// worker's own chunk, so it needs no warm-up. With one, it sends a copy
// from the three rotating send buffers, which allocate nothing once
// warm; the injector here targets another worker, so it decides every
// op without allocating.
func TestRingStepZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	const length = 64
	a, b := chunkBounds(length, 2, 1) // chunk this worker receives at step 0
	inbound := make([]float32, b-a)
	for i := range inbound {
		inbound[i] = 1
	}

	r := newStepRing(t, length, Options{})
	msg := oneStep(t, r, inbound)
	if &msg.data[0] != &r.v[0] {
		t.Fatal("fault-free step sent a copy, not a view of its chunk")
	}
	if n := testing.AllocsPerRun(100, func() { oneStep(t, r, inbound) }); n != 0 {
		t.Errorf("fault-free chanRing.step allocates %.2f/op, want 0", n)
	}

	inj, err := faults.New(1, faults.Profile{Corrupt: 1, Workers: []int{99}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = newStepRing(t, length, Options{Faults: inj})
	for i := 0; i < 3; i++ {
		msg = oneStep(t, r, inbound) // warm the rotating send buffers
		if &msg.data[0] == &r.v[0] {
			t.Fatal("step with a fault injector sent a view of its own chunk")
		}
	}
	if n := testing.AllocsPerRun(100, func() { oneStep(t, r, inbound) }); n != 0 {
		t.Errorf("chanRing.step with a fault injector allocates %.2f/op, want 0", n)
	}
}

// TestRingAllocatesNoChunkCopies pins a whole fault-free Ring run: with
// views instead of send copies, reducing two 1M-float vectors allocates
// only the run's fixed wiring, far below one 4 MB chunk.
func TestRingAllocatesNoChunkCopies(t *testing.T) {
	testrace.SkipIfRace(t)

	const length, runs = 1 << 20, 5
	vs := [][]float32{make([]float32, length), make([]float32, length)}
	if err := Ring(vs); err != nil { // start-up: goroutine and channel pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := Ring(vs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 64<<10 {
		t.Errorf("Ring of 2 × %d floats allocates %d B/op, want < 64 KiB", length, perRun)
	}
}
