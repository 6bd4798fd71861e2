package allreduce

import (
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
// Every socket op is bounded: each dial, chunk write and chunk read
// runs under Options.OpTimeout (2 s when unset), the wiring phase under
// that times the retry budget plus one, and timed-out reads and failed
// dials retry under Options.Retry. So a ring never blocks for good,
// also when a chunk outgrows the socket buffers and both ends of a link
// block in Write: the write deadline fails the run with "chunk write
// timed out". On failure the returned error is a *RingError attributing
// blame per worker.
func RingTCPOpts(vectors [][]float32, opts Options) error {
	// The wiring deadline saturates: an OpTimeout too large to multiply
	// means a far deadline, not a product that wrapped into the past.
	wiring, k := opts.opTimeout(), time.Duration(opts.Retry.attempts()+1)
	if wiring > math.MaxInt64/k {
		wiring = math.MaxInt64
	} else {
		wiring *= k
	}
	return ringTCP(vectors, opts, time.Now().Add(wiring))
}

// ringTCP is RingTCPOpts with the wiring phase's deadline given.
func ringTCP(vectors [][]float32, opts Options, deadline time.Time) error {
	n, length, err := validate(vectors)
	if err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	// One loopback listener per worker. The deadline bounds the whole
	// wiring phase, so a peer that never dials cannot hang the run.
	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("allreduce: listen: %w", err)
		}
		_ = l.(*net.TCPListener).SetDeadline(deadline)
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
			inConns[i] = faults.WrapConn(c, opts.Faults, "tcp", workerID(opts.WorkerIDs, i))
		}(i)
		go func(i int) {
			defer wg.Done()
			c, err := dialRetry(listeners[(i+1)%n].Addr().String(), opts, uint64(i))
			if err != nil {
				errs[n+i] = err
				return
			}
			outConns[i] = faults.WrapConn(c, opts.Faults, "tcp", workerID(opts.WorkerIDs, i))
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

	workerErrs := make([]*WorkerError, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			workerErrs[me] = tcpWorker(me, vectors[me], n, length, outConns[me], inConns[me], opts)
		}(w)
	}
	wg.Wait()
	return joinWorkerErrs(workerErrs)
}

// tcpWorker runs one worker's 2·(n−1) ring steps over its socket pair.
func tcpWorker(me int, v []float32, n, length int, send, recv net.Conn, opts Options) *WorkerError {
	ids := opts.WorkerIDs
	self, succ, pred := workerID(ids, me), workerID(ids, (me+1)%n), workerID(ids, (me-1+n)%n)
	// The largest chunk the ring partition can produce — the bound that
	// keeps a corrupted length prefix from allocating unbounded memory.
	maxChunk := length/n + 1
	fcOut, _ := send.(*faults.Conn)
	fcIn, _ := recv.(*faults.Conn)
	wObs := opts.Obs.WithWorker(self)
	step := func(opIdx uint64, sendChunk, recvChunk int, reduce bool) *WorkerError {
		a, b := chunkBounds(length, n, sendChunk)
		_ = send.SetWriteDeadline(time.Now().Add(opts.opTimeout()))
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
		in, inCtx, err := readChunk(recv, maxChunk, opts)
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

// dialRetry dials the ring successor, each attempt under the op
// timeout, retrying failures with exponential backoff + jitter.
func dialRetry(addr string, opts Options, salt uint64) (net.Conn, error) {
	d := net.Dialer{Timeout: opts.opTimeout()}
	for attempt := 1; ; attempt++ {
		c, err := d.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		if attempt >= opts.Retry.attempts() {
			return nil, err
		}
		time.Sleep(opts.Retry.Pause(attempt, salt))
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

// readChunk reads one framed message and the sender's span context,
// validating the length prefix against maxElems before allocating (a
// corrupted or malicious peer must not be able to OOM the process) and
// the payload against its CRC. On a net.Conn each wait for bytes runs
// under opts.OpTimeout, and a timed-out read resumes where it left off
// (partial frames are completed, not restarted) up to the retry budget.
func readChunk(r io.Reader, maxElems int, opts Options) ([]float32, obs.SpanContext, error) {
	attempts := opts.Retry.attempts()
	conn, _ := r.(net.Conn)
	readFull := func(buf []byte) error {
		off, attempt := 0, 1
		for off < len(buf) {
			if conn != nil {
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
