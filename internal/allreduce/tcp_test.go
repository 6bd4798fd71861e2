package allreduce

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"convmeter/internal/obs"
)

func TestRingTCPMatchesChannelRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		tcpVecs, want := makeVectors(n, 513, int64(n*31))
		chanVecs := make([][]float32, n)
		for i := range tcpVecs {
			chanVecs[i] = append([]float32(nil), tcpVecs[i]...)
		}
		if err := RingTCPOpts(tcpVecs, Options{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Ring(chanVecs); err != nil {
			t.Fatal(err)
		}
		checkAllEqualSum(t, tcpVecs, want)
		// Bitwise agreement with the channel implementation: both sum the
		// same chunks in the same ring order.
		for w := range tcpVecs {
			for k := range tcpVecs[w] {
				if tcpVecs[w][k] != chanVecs[w][k] {
					t.Fatalf("n=%d worker %d elem %d: tcp %g vs chan %g",
						n, w, k, tcpVecs[w][k], chanVecs[w][k])
				}
			}
		}
	}
}

func TestRingTCPSingleWorker(t *testing.T) {
	v := [][]float32{{1, 2, 3}}
	if err := RingTCPOpts(v, Options{}); err != nil {
		t.Fatal(err)
	}
	if v[0][1] != 2 {
		t.Fatal("single-worker TCP ring must not modify data")
	}
}

func TestRingTCPErrors(t *testing.T) {
	if err := RingTCPOpts(nil, Options{}); err == nil {
		t.Fatal("expected no-workers error")
	}
	if err := RingTCPOpts([][]float32{{1}, {1, 2}}, Options{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestRingTCPShortVector(t *testing.T) {
	// More workers than elements: empty chunks must frame correctly.
	vectors, want := makeVectors(6, 2, 9)
	if err := RingTCPOpts(vectors, Options{}); err != nil {
		t.Fatal(err)
	}
	checkAllEqualSum(t, vectors, want)
}

func TestChunkFraming(t *testing.T) {
	var buf bytes.Buffer
	orig := []float32{1.5, -2.25, 0, 3e8}
	if err := writeChunk(&buf, newChunkBufs(len(orig)), orig, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	back, _, err := readChunk(&buf, newChunkBufs(len(orig)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("length %d", len(back))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("elem %d: %g vs %g", i, back[i], orig[i])
		}
	}
	// Empty chunk.
	buf.Reset()
	if err := writeChunk(&buf, newChunkBufs(0), nil, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if back, _, err := readChunk(&buf, newChunkBufs(8), Options{}); err != nil || len(back) != 0 {
		t.Fatalf("empty chunk: %v %v", back, err)
	}
	// Truncated stream.
	buf.Reset()
	buf.Write([]byte{4, 0, 0, 0, 1, 2})
	if _, _, err := readChunk(&buf, newChunkBufs(8), Options{}); err == nil {
		t.Fatal("expected truncation error")
	}
	// A length prefix beyond the ring's chunk bound must be rejected
	// before any allocation happens.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	buf.Write(make([]byte, frameHeaderLen-4)) // rest of the frame header
	if _, _, err := readChunk(&buf, newChunkBufs(8), Options{}); err == nil {
		t.Fatal("expected size rejection")
	}
	// Corrupted payload must fail CRC validation.
	buf.Reset()
	if err := writeChunk(&buf, newChunkBufs(len(orig)), orig, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[frameHeaderLen+2] ^= 0x10 // flip a payload bit
	if _, _, err := readChunk(bytes.NewReader(frame), newChunkBufs(len(orig)), Options{}); err == nil {
		t.Fatal("expected CRC rejection")
	}
}

// countFDs reports the number of open file descriptors, or -1 where
// /proc is unavailable.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestRingTCPWiringFailureClosesConns reproduces the partial-wiring
// leak: when the accept side of the ring times out while the dials
// succeed (a peer that wires half its sockets, then stalls), the
// wiring-error return must tear down the connections that *were*
// established. The pre-fix code registered the teardown defer below the
// error check, so every dialled conn outlived the call.
//
// The scenario is forced deterministically: the wiring deadline is
// already past, so every accept fails at once, while the dials succeed
// against the listener backlog.
//
// A clean ring runs first and must leave no descriptor behind either:
// the success path releases every listener and both ends of every conn,
// and the failure path above never accepts, so only the clean run
// proves the accepted conns are closed.
func TestRingTCPWiringFailureClosesConns(t *testing.T) {
	before := countFDs(t)
	if before < 0 {
		t.Skip("/proc/self/fd unavailable; fd accounting needs Linux")
	}
	vectors, _ := makeVectors(3, 16, 7)
	if err := RingTCPOpts(vectors, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := countFDs(t); after > before {
		t.Fatalf("clean ring leaked %d file descriptor(s): %d before, %d after", after-before, before, after)
	}
	err := ringTCP(vectors, Options{}, time.Now().Add(-time.Second))
	if err == nil {
		t.Fatal("expected a ring wiring error from the expired accept deadline")
	}
	if !strings.Contains(err.Error(), "ring wiring") {
		t.Fatalf("error %v is not a wiring failure; the scenario no longer exercises the teardown path", err)
	}
	if after := countFDs(t); after > before {
		t.Fatalf("wiring failure leaked %d file descriptor(s): %d before, %d after", after-before, before, after)
	}
}

// TestRingTCPHugeOpTimeout: an OpTimeout near the largest Duration
// still puts every deadline in the future (time.Time.Add saturates
// instead of wrapping into the past), so a ring meant to wait
// practically forever wires and reduces.
func TestRingTCPHugeOpTimeout(t *testing.T) {
	for _, timeout := range []time.Duration{1 << 61, 1 << 62, math.MaxInt64} {
		vectors, want := makeVectors(3, 64, 11)
		if err := RingTCPOpts(vectors, Options{OpTimeout: timeout}); err != nil {
			t.Fatalf("OpTimeout %d: %v", timeout, err)
		}
		checkAllEqualSum(t, vectors, want)
	}
}

// oversizedChunkFloats returns a per-worker chunk length, in floats,
// that one ring link cannot buffer while neither end reads: twice the
// bytes the link holds, the send buffer's ceiling (tcp_wmem's max) and
// the receive buffer a socket starts with (tcp_rmem's default), read
// from the host's TCP settings; at least 2M floats (8 MB), the figure
// for common defaults.
func oversizedChunkFloats() int {
	setting := func(name string, field int) int {
		b, err := os.ReadFile("/proc/sys/net/ipv4/" + name)
		if err != nil {
			return 0
		}
		f := strings.Fields(string(b))
		if field >= len(f) {
			return 0
		}
		v, err := strconv.Atoi(f[field])
		if err != nil {
			return 0
		}
		return v
	}
	buffered := setting("tcp_wmem", 2) + setting("tcp_rmem", 1)
	return max(2<<20, 2*buffered/4)
}

// TestRingTCPZeroOptionsBoundsOversizedChunk: the zero Options is a
// bounded ring. Both workers of a 2-worker ring write their whole chunk
// before reading, so a chunk past the socket buffers blocks both in
// Write; the default op timeout must fail the run with "chunk write
// timed out" instead of leaving it blocked for good.
func TestRingTCPZeroOptionsBoundsOversizedChunk(t *testing.T) {
	const guard = 10 * time.Second
	chunk := oversizedChunkFloats()
	if chunk > 8<<20 {
		t.Skipf("the host's socket buffers need %d-float chunks (%d MB per worker) to overflow", chunk, 8*chunk>>20)
	}
	vectors := [][]float32{make([]float32, 2*chunk), make([]float32, 2*chunk)}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- RingTCPOpts(vectors, Options{}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "chunk write timed out") {
			t.Fatalf("2 × %d floats: err = %v, want a chunk write timeout", 2*chunk, err)
		}
		if elapsed := time.Since(start); elapsed > guard/2 {
			t.Fatalf("the timeout took %v, want about the %v default op timeout", elapsed, defaultOpTimeout)
		}
	case <-time.After(guard):
		t.Fatalf("2 × %d floats: the ring was still blocked after %v", 2*chunk, guard)
	}
}
