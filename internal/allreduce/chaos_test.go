package allreduce

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// chaosOptions are tight bounds so every failing case errors out well
// inside the suite's time budget: 100ms per op.
func chaosOptions(inj *faults.Injector) Options {
	return Options{OpTimeout: 100 * time.Millisecond, Faults: inj}
}

// newInjector builds an injector or fails the test.
func newInjector(t *testing.T, seed int64, prof faults.Profile) *faults.Injector {
	t.Helper()
	inj, err := faults.New(seed, prof)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// checkGoroutines fails the test if the goroutine count has not returned
// to its pre-test baseline — a leaked ring worker blocked on a channel or
// socket would hold it up.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosFaultClasses drives the TCP ring through each fault class at
// probability 1 and asserts the bounded contract: delays are absorbed
// and the reduce still yields the exact sums; destructive classes produce
// a clean *RingError with blame, with no goroutine left behind.
func TestChaosFaultClasses(t *testing.T) {
	cases := []struct {
		name    string
		prof    faults.Profile
		succeed bool
	}{
		{"delay-absorbed", faults.Profile{Delay: 1, MaxDelay: 2 * time.Millisecond}, true},
		{"corrupt-detected", faults.Profile{Corrupt: 1, Workers: []int{1}}, false},
		{"drop-bounded", faults.Profile{Drop: 1, Workers: []int{1}}, false},
		{"truncate-detected", faults.Profile{Truncate: 1, Workers: []int{1}}, false},
		{"reset-bounded", faults.Profile{Reset: 1, Workers: []int{0}}, false},
	}
	for _, tc := range cases {
		t.Run("tcp/"+tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			vectors, want := makeVectors(4, 37, 7)
			opts := chaosOptions(newInjector(t, 21, tc.prof))
			start := time.Now()
			err := RingTCPOpts(vectors, opts)
			elapsed := time.Since(start)
			if elapsed > 10*time.Second {
				t.Fatalf("run took %v, want bounded well under the chaos budget", elapsed)
			}
			if tc.succeed {
				if err != nil {
					t.Fatalf("delays must be absorbed, got %v", err)
				}
				checkAllEqualSum(t, vectors, want)
			} else {
				var re *RingError
				if !errors.As(err, &re) {
					t.Fatalf("err = %v, want *RingError", err)
				}
				if _, ok := Blame(err); !ok {
					t.Fatalf("RingError carries no blame: %v", err)
				}
			}
			checkGoroutines(t, baseline)
		})
	}
}

// TestChaosTCPBlameTargets: hard write-side faults on a single targeted
// worker must blame exactly that worker — the property the elastic
// trainer's degradation relies on to drop the right ring member.
func TestChaosTCPBlameTargets(t *testing.T) {
	for _, target := range []int{0, 2, 3} {
		vectors, _ := makeVectors(4, 64, int64(target)+3)
		opts := chaosOptions(newInjector(t, 5, faults.Profile{Drop: 1, Workers: []int{target}}))
		err := RingTCPOpts(vectors, opts)
		if err == nil {
			t.Fatalf("target %d: run succeeded despite dropped connections", target)
		}
		blamed, ok := Blame(err)
		if !ok || blamed != target {
			t.Fatalf("target %d: Blame = (%d, %t), err = %v", target, blamed, ok, err)
		}
	}
}

// TestChaosSameSeedSameDecisions: the transport consults the injector
// with stable logical op identities, so two runs over the same topology
// with same-seed injectors plan the identical fault schedule.
func TestChaosSameSeedSameDecisions(t *testing.T) {
	prof := faults.Profile{Corrupt: 0.3, Drop: 0.1}
	var ops []faults.Op
	for w := 0; w < 4; w++ {
		for s := uint64(0); s < 6; s++ {
			ops = append(ops,
				faults.Op{Transport: "tcp", Worker: w, Dir: "out", Seq: s},
				faults.Op{Transport: "tcp", Worker: w, Dir: "in", Seq: s})
		}
	}
	a := newInjector(t, 33, prof).Planned(ops)
	b := newInjector(t, 33, prof).Planned(ops)
	if len(a) == 0 {
		t.Fatal("plan injected nothing over 48 ops at 40% fault probability")
	}
	if len(a) != len(b) {
		t.Fatalf("plans differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestReadChunkAssemblesSplitFrame: a frame delivered in two bursts
// inside one op timeout is assembled across the Reads it takes; the
// deadline bounds the frame, not each Read.
func TestReadChunkAssemblesSplitFrame(t *testing.T) {
	client, server := tcpPair(t)
	frame := []float32{1, 2, 3, 4, 5}
	go func() {
		buf := frameBytes(frame)
		_, _ = client.Write(buf[:3]) // a sliver: less than the header
		time.Sleep(80 * time.Millisecond)
		_, _ = client.Write(buf[3:])
	}()
	got, _, err := readChunk(server, newChunkBufs(len(frame)), Options{OpTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("split frame: %v", err)
	}
	if len(got) != len(frame) {
		t.Fatalf("got %d elements, want %d", len(got), len(frame))
	}
	for i := range got {
		if got[i] != frame[i] {
			t.Fatalf("elem %d = %g, want %g", i, got[i], frame[i])
		}
	}
}

// TestReadChunkStalledFrameTimesOut: a frame stalled mid-read fails
// with a timeout once its one deadline, OpTimeout from the call,
// passes, before the stalled writer resumes.
func TestReadChunkStalledFrameTimesOut(t *testing.T) {
	const opTimeout, stall = 60 * time.Millisecond, time.Second
	client, server := tcpPair(t)
	resume := make(chan struct{})
	defer close(resume)
	go func() {
		buf := frameBytes([]float32{1, 2, 3})
		_, _ = client.Write(buf[:2])
		// The writer resumes when the read has returned, or after the
		// stall at the latest.
		select {
		case <-resume:
		case <-time.After(stall):
		}
		_, _ = client.Write(buf[2:])
	}()
	start := time.Now()
	_, _, err := readChunk(server, newChunkBufs(3), Options{OpTimeout: opTimeout})
	elapsed := time.Since(start)
	if !isTimeout(err) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed < opTimeout || elapsed >= stall {
		t.Fatalf("the stalled read failed after %v, want one %v deadline, before the writer resumes at %v", elapsed, opTimeout, stall)
	}
}

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan struct{})
	var aerr error
	go func() {
		defer close(accepted)
		server, aerr = l.Accept()
	}()
	client, derr := net.Dial("tcp", l.Addr().String())
	<-accepted
	if derr != nil || aerr != nil {
		t.Fatalf("tcp pair: dial=%v accept=%v", derr, aerr)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

// frameBytes renders one wire frame the way writeChunk does.
func frameBytes(data []float32) []byte {
	var sink frameSink
	if err := writeChunk(&sink, newChunkBufs(len(data)), data, obs.SpanContext{}); err != nil {
		panic(err)
	}
	return sink.buf
}

type frameSink struct{ buf []byte }

func (s *frameSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
