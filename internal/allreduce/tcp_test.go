package allreduce

import (
	"bytes"
	"context"
	"net"
	"os"
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
		if err := RingTCP(tcpVecs); err != nil {
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
	if err := RingTCP(v); err != nil {
		t.Fatal(err)
	}
	if v[0][1] != 2 {
		t.Fatal("single-worker TCP ring must not modify data")
	}
}

func TestRingTCPErrors(t *testing.T) {
	if err := RingTCP(nil); err == nil {
		t.Fatal("expected no-workers error")
	}
	if err := RingTCP([][]float32{{1}, {1, 2}}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestRingTCPShortVector(t *testing.T) {
	// More workers than elements: empty chunks must frame correctly.
	vectors, want := makeVectors(6, 2, 9)
	if err := RingTCP(vectors); err != nil {
		t.Fatal(err)
	}
	checkAllEqualSum(t, vectors, want)
}

func TestChunkFraming(t *testing.T) {
	var buf bytes.Buffer
	orig := []float32{1.5, -2.25, 0, 3e8}
	if err := writeChunk(&buf, orig, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	back, err := readChunk(&buf, len(orig))
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
	if err := writeChunk(&buf, nil, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if back, err := readChunk(&buf, 8); err != nil || len(back) != 0 {
		t.Fatalf("empty chunk: %v %v", back, err)
	}
	// Truncated stream.
	buf.Reset()
	buf.Write([]byte{4, 0, 0, 0, 1, 2})
	if _, err := readChunk(&buf, 8); err == nil {
		t.Fatal("expected truncation error")
	}
	// A length prefix beyond the ring's chunk bound must be rejected
	// before any allocation happens.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	buf.Write(make([]byte, frameHeaderLen-4)) // rest of the frame header
	if _, err := readChunk(&buf, 8); err == nil {
		t.Fatal("expected size rejection")
	}
	// Corrupted payload must fail CRC validation.
	buf.Reset()
	if err := writeChunk(&buf, orig, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[frameHeaderLen+2] ^= 0x10 // flip a payload bit
	if _, err := readChunk(bytes.NewReader(frame), len(orig)); err == nil {
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
// The scenario is forced deterministically: OpTimeout is chosen so the
// accept-deadline product overflows to zero (deadline = now, accepts
// fail immediately) while the dialer timeout stays effectively
// unbounded (dials succeed against the listener backlog).
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
	if err := RingTCP(vectors); err != nil {
		t.Fatal(err)
	}
	if after := countFDs(t); after > before {
		t.Fatalf("clean ring leaked %d file descriptor(s): %d before, %d after", after-before, before, after)
	}
	err := RingTCPOpts(vectors, Options{
		OpTimeout: 1 << 62, // ×(attempts+1)=4 wraps to 0: accept deadline = now
		Retry:     RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Max: time.Millisecond},
	})
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

// TestDialRetryBackoffHonoursCancellation guards the backoff pause in
// dialRetry: once the run's context is cancelled, the retry loop must
// return promptly instead of sleeping out the remaining backoff
// schedule. The pre-fix time.Sleep kept a cancelled run pinned for the
// full pause (10s here; the test allows 2s of scheduler slack).
func TestDialRetryBackoffHonoursCancellation(t *testing.T) {
	// Bind then close a port so dials fail instantly with refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	c, err := dialRetry(addr, Options{
		Ctx:       ctx,
		OpTimeout: time.Second,
		Retry:     RetryPolicy{Attempts: 100, Backoff: 10 * time.Second, Max: 10 * time.Second},
	}, 1)
	if err == nil {
		_ = c.Close()
		t.Fatal("expected a dial error against a closed port")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dialRetry returned after %v; the backoff pause must honour cancellation", elapsed)
	}
}
