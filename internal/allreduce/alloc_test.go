package allreduce

import (
	"runtime"
	"testing"

	"convmeter/internal/testrace"
)

// newStepRing wires worker 0 of a two-worker ring for driving its step
// directly: the test plays the predecessor by pre-filling the receive
// link and the successor by draining the send link (both links have
// capacity 1, exactly as Ring wires them).
func newStepRing(length int) *chanRing {
	v := make([]float32, length)
	for i := range v {
		v[i] = float32(i)
	}
	return &chanRing{v: v, n: 2, send: make(chan chanMsg, 1), recv: make(chan chanMsg, 1)}
}

// oneStep runs one ring step — send chunk 0, then receive chunk 1 and
// store it — and returns the message the worker sent.
func oneStep(r *chanRing, inbound []float32) chanMsg {
	r.recv <- chanMsg{data: inbound}
	r.step(0, 1, false)
	return <-r.send
}

// TestRingStepZeroAllocs pins the chanRing.step allocation contract: a
// ring step allocates nothing. It sends a view of the worker's own
// chunk, not a copy, so it needs no warm-up.
func TestRingStepZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	const length = 64
	a, b := chunkBounds(length, 2, 1) // chunk this worker receives at step 0
	inbound := make([]float32, b-a)
	for i := range inbound {
		inbound[i] = 1
	}

	r := newStepRing(length)
	msg := oneStep(r, inbound)
	if &msg.data[0] != &r.v[0] {
		t.Fatal("step sent a copy, not a view of its chunk")
	}
	if n := testing.AllocsPerRun(100, func() { oneStep(r, inbound) }); n != 0 {
		t.Errorf("chanRing.step allocates %.2f/op, want 0", n)
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

// TestRingTCPReusesChunkBuffers pins a fault-free TCP ring run's
// allocations: each worker sizes one frame, one body and one decoded
// buffer for the largest chunk and reuses them for all its 2·(n−1)
// steps, so at n = 2 a run allocates 1.5× its payload and at n = 4
// 0.75×, plus the run's wiring.
func TestRingTCPReusesChunkBuffers(t *testing.T) {
	testrace.SkipIfRace(t)

	const length, runs = 1 << 20, 3
	for _, n := range []int{2, 4} {
		vs := make([][]float32, n)
		for i := range vs {
			vs[i] = make([]float32, length)
		}
		if err := RingTCPOpts(vs, Options{}); err != nil { // start-up: goroutine and socket pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := RingTCPOpts(vs, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		chunk := frameHeaderLen + 4*(length/n+1) + 4
		if limit := uint64(3*n*chunk + 256<<10); perRun >= limit {
			t.Errorf("RingTCPOpts of %d × %d floats allocates %d B/op, want < %d (three chunk buffers per worker and 256 KiB of wiring)",
				n, length, perRun, limit)
		}
	}
}
