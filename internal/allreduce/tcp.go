package allreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// RingTCPOpts performs the same ring all-reduce as Ring, but over real
// TCP connections (loopback sockets between the workers) instead of
// channels — the transport shape of the paper's inter-node phase, where
// gradients cross an actual network. Chunks are framed as
// length-prefixed float32 payloads followed by an IEEE CRC-32 of the
// payload bytes, so corruption on the wire is detected rather than
// silently averaged into the gradients.
//
// The ring is wired as n listeners; worker i dials worker (i+1) mod n, so
// each worker holds one inbound and one outbound connection.
//
// It is the resilient ring: Options add context cancellation, per-op
// socket deadlines, bounded read/dial retries with backoff + jitter, and
// fault injection on the connections. The zero Options is the plain TCP
// ring. On failure the returned error is a *RingError attributing blame
// per worker.
func RingTCPOpts(vectors [][]float32, opts Options) error {
	n, length, err := validate(vectors)
	if err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	resilient := opts.resilient()
	// One loopback listener per worker.
	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("allreduce: listen: %w", err)
		}
		if resilient {
			// Bound the whole wiring phase so a peer that never dials
			// cannot hang the run.
			deadline := time.Now().Add(opts.opTimeout() * time.Duration(opts.Retry.attempts()+1))
			_ = l.(*net.TCPListener).SetDeadline(deadline)
		}
		listeners[i] = l
		defer l.Close()
	}
	// Accept inbound connections concurrently while dialling outbound.
	inConns := make([]net.Conn, n)
	outConns := make([]net.Conn, n)
	var wg sync.WaitGroup
	errs := make([]error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			c, err := listeners[i].Accept()
			if err != nil {
				errs[i] = err
				return
			}
			inConns[i] = faults.WrapConn(c, opts.Faults, "tcp", opts.workerID(i))
		}(i)
		go func(i int) {
			defer wg.Done()
			c, err := dialRetry(listeners[(i+1)%n].Addr().String(), opts, uint64(i))
			if err != nil {
				errs[n+i] = err
				return
			}
			outConns[i] = faults.WrapConn(c, opts.Faults, "tcp", opts.workerID(i))
		}(i)
	}
	wg.Wait()
	// The teardown must be registered before the wiring-error check:
	// when one dial or accept fails, its peers may already hold live
	// sockets, and returning above a later-registered defer would leak
	// them. Partial wiring leaves nil entries, hence the guards.
	closeAll := func() {
		for _, c := range inConns {
			if c != nil {
				_ = c.Close() // teardown of loopback conns; nothing to report to
			}
		}
		for _, c := range outConns {
			if c != nil {
				_ = c.Close()
			}
		}
	}
	defer closeAll()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("allreduce: ring wiring: %w", err)
		}
	}
	if opts.Ctx != nil {
		// External cancellation tears the sockets down, unblocking any
		// worker mid-read; per-op deadlines bound everything else.
		stop := context.AfterFunc(opts.Ctx, closeAll)
		defer stop()
	}

	workerErrs := make([]*WorkerError, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			workerErrs[me] = tcpWorker(me, vectors[me], n, length, outConns[me], inConns[me], opts, resilient)
		}(w)
	}
	wg.Wait()
	return joinWorkerErrs(workerErrs)
}

// tcpWorker runs one worker's 2·(n−1) ring steps over its socket pair.
func tcpWorker(me int, v []float32, n, length int, send, recv net.Conn, opts Options, resilient bool) *WorkerError {
	self, succ := opts.workerID(me), opts.workerID((me+1)%n)
	pred := opts.workerID((me - 1 + n) % n)
	// The largest chunk the ring partition can produce — the bound that
	// keeps a corrupted length prefix from allocating unbounded memory.
	maxChunk := length/n + 1
	fcOut, _ := send.(*faults.Conn)
	fcIn, _ := recv.(*faults.Conn)
	wObs := opts.Obs.WithWorker(self)
	step := func(opIdx uint64, sendChunk, recvChunk int, reduce bool) *WorkerError {
		a, b := chunkBounds(length, n, sendChunk)
		if resilient {
			_ = send.SetWriteDeadline(time.Now().Add(opts.opTimeout()))
		}
		if fcOut != nil {
			fcOut.SetWriteSeq(opts.SeqBase + opIdx)
		}
		ssp := wObs.Start("ar.send")
		err := writeChunk(send, v[a:b], ssp.Context())
		ssp.End()
		if err != nil {
			if isTimeout(err) {
				// The successor stopped draining; it may only be stalled
				// downstream of the real fault.
				return &WorkerError{Worker: succ, Err: fmt.Errorf("chunk write timed out: %w", err)}
			}
			return &WorkerError{Worker: self, Primary: true, Err: err}
		}
		if fcIn != nil {
			fcIn.SetReadSeq(opts.SeqBase + opIdx)
		}
		wsp := wObs.Start("ar.wait")
		in, inCtx, err := readChunkRetry(recv, maxChunk, opts, resilient)
		wsp.LinkTo(inCtx)
		wsp.End()
		if err != nil {
			switch {
			case errors.Is(err, errCRC):
				return &WorkerError{Worker: pred, Primary: true, Err: err}
			case isTimeout(err):
				return &WorkerError{Worker: pred, Err: fmt.Errorf("chunk read timed out: %w", err)}
			default:
				return &WorkerError{Worker: pred, Primary: true, Err: err}
			}
		}
		a, b = chunkBounds(length, n, recvChunk)
		if len(in) != b-a {
			return &WorkerError{Worker: pred, Primary: true,
				Err: fmt.Errorf("allreduce: chunk size %d, want %d", len(in), b-a)}
		}
		rsp := wObs.Start("ar.recv")
		if reduce {
			for k := range in {
				v[a+k] += in[k]
			}
		} else {
			copy(v[a:b], in)
		}
		rsp.End()
		return nil
	}
	for s := 0; s < n-1; s++ {
		if we := step(uint64(s), ((me-s)%n+n)%n, ((me-s-1)%n+n)%n, true); we != nil {
			return we
		}
	}
	for s := 0; s < n-1; s++ {
		if we := step(uint64(n-1+s), ((me-s+1)%n+n)%n, ((me-s)%n+n)%n, false); we != nil {
			return we
		}
	}
	return nil
}

// dialRetry dials the ring successor, retrying transient failures with
// exponential backoff + jitter when resilience is enabled.
func dialRetry(addr string, opts Options, salt uint64) (net.Conn, error) {
	if !opts.resilient() {
		return net.Dial("tcp", addr)
	}
	attempts := opts.Retry.attempts()
	for attempt := 1; ; attempt++ {
		d := net.Dialer{Timeout: opts.opTimeout()}
		c, err := d.DialContext(opts.ctx(), "tcp", addr)
		if err == nil {
			return c, nil
		}
		if attempt >= attempts || opts.ctx().Err() != nil {
			return nil, err
		}
		// The backoff pause must honour cancellation: a plain Sleep keeps
		// a cancelled run wired up for the full backoff schedule.
		t := time.NewTimer(opts.Retry.backoff(attempt, salt))
		select {
		case <-opts.ctx().Done():
			t.Stop()
			return nil, fmt.Errorf("allreduce: dial %s: %w", addr, opts.ctx().Err())
		case <-t.C:
			// Stop on a fired timer is a no-op; keeps the release
			// unconditional on every path out of the loop.
			t.Stop()
		}
	}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// errCRC marks a chunk whose payload failed CRC validation.
var errCRC = errors.New("allreduce: chunk CRC mismatch")

// frameHeaderLen is the fixed frame prologue: a u32 element count
// followed by the sender's span context (trace id, span id — two i64s).
// A disabled tracer sends zeros; the header sits outside the payload
// CRC, whose job is protecting the gradient bits.
const frameHeaderLen = 4 + 8 + 8

// writeChunk frames a float32 slice as one length-prefixed message —
// element count, span context, payload, trailing CRC-32 of the payload —
// written in a single Write so fault injection and deadlines see one
// wire operation per chunk.
func writeChunk(w io.Writer, data []float32, ctx obs.SpanContext) error {
	buf := make([]byte, frameHeaderLen+4*len(data)+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(data)))
	binary.LittleEndian.PutUint64(buf[4:], uint64(ctx.Trace))
	binary.LittleEndian.PutUint64(buf[12:], uint64(ctx.Span))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[frameHeaderLen+4*i:], math.Float32bits(v))
	}
	payload := buf[frameHeaderLen : frameHeaderLen+4*len(data)]
	binary.LittleEndian.PutUint32(buf[frameHeaderLen+4*len(data):], crc32.ChecksumIEEE(payload))
	_, err := w.Write(buf)
	return err
}

// readChunk reads one framed message, validating the length prefix
// against maxElems before allocating (a corrupted or malicious peer must
// not be able to OOM the process) and the payload against its CRC.
func readChunk(r io.Reader, maxElems int) ([]float32, error) {
	data, _, err := readChunkRetry(r, maxElems, Options{}, false)
	return data, err
}

// readChunkRetry is readChunk with per-op deadlines and bounded retries:
// each wait for bytes runs under opts.OpTimeout, and a timed-out read
// resumes where it left off (partial frames are completed, not
// restarted) up to the retry budget.
func readChunkRetry(r io.Reader, maxElems int, opts Options, resilient bool) ([]float32, obs.SpanContext, error) {
	attempts := 1
	if resilient {
		attempts = opts.Retry.attempts()
	}
	conn, _ := r.(net.Conn)
	readFull := func(buf []byte) error {
		off, attempt := 0, 1
		for off < len(buf) {
			if resilient && conn != nil {
				_ = conn.SetReadDeadline(time.Now().Add(opts.opTimeout()))
			}
			m, err := r.Read(buf[off:])
			off += m
			if err != nil {
				if off == len(buf) {
					break
				}
				if isTimeout(err) && attempt < attempts {
					attempt++
					continue
				}
				if err == io.EOF && off > 0 {
					return io.ErrUnexpectedEOF
				}
				return err
			}
		}
		return nil
	}
	var header [frameHeaderLen]byte
	if err := readFull(header[:]); err != nil {
		return nil, obs.SpanContext{}, err
	}
	n := binary.LittleEndian.Uint32(header[:])
	ctx := obs.SpanContext{
		Trace: int64(binary.LittleEndian.Uint64(header[4:])),
		Span:  int64(binary.LittleEndian.Uint64(header[12:])),
	}
	if maxElems < 0 || n > uint32(maxElems) {
		return nil, ctx, fmt.Errorf("allreduce: implausible chunk size %d (max %d)", n, maxElems)
	}
	body := make([]byte, 4*int(n)+4)
	if err := readFull(body); err != nil {
		return nil, ctx, err
	}
	payload := body[:4*int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[4*int(n):]) {
		return nil, ctx, errCRC
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, ctx, nil
}
